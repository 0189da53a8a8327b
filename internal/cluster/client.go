package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"time"

	"cordial/internal/obs"
	"cordial/internal/wal"
)

// Wire types shared by the control plane, node agents and the router.
// []byte fields ride as base64 in JSON, which keeps the handoff bundle a
// plain JSON document end to end.

// HandoffBundle carries one node's portable session state: an engine
// snapshot payload plus the journal suffix the snapshot may not cover. The
// suffix's LSNs stay in the SOURCE journal's namespace; the importer treats
// them as foreign watermarks only (see stream.ImportSessions).
type HandoffBundle struct {
	Payload []byte       `json:"payload"`
	Suffix  []wal.Record `json:"suffix,omitempty"`
}

// exportRequest asks a node to adopt the descriptor's ownership, drain,
// and hand back the sessions it no longer owns.
type exportRequest struct {
	Desc Descriptor `json:"descriptor"`
}

// importRequest asks a node to adopt the descriptor's ownership and
// ingest the bundled sessions it owns under it.
type importRequest struct {
	Desc   Descriptor    `json:"descriptor"`
	Bundle HandoffBundle `json:"bundle"`
	// Join marks an import into a joiner, whose join may yet fail.
	Join bool `json:"join,omitempty"`
}

// dropRequest asks a node to discard local sessions it does not own
// under the descriptor (sent only after the importer acknowledged them).
type dropRequest struct {
	Desc Descriptor `json:"descriptor"`
}

// registerRequest announces a serve node to the control plane, with the
// name of the profile its engine packs addresses under (empty: hbm2e).
type registerRequest struct {
	Member  Member `json:"member"`
	Profile string `json:"profile,omitempty"`
}

// heartbeatRequest keeps a registration alive.
type heartbeatRequest struct {
	ID string `json:"id"`
}

// heartbeatResponse tells the node the current epoch so it can refresh
// its ring when the topology moved.
type heartbeatResponse struct {
	Epoch uint64 `json:"epoch"`
}

// maxResponseBytes bounds any cluster-internal response body. Handoff
// bundles dominate; 256 MiB is far above any realistic session set and
// still protects against a runaway peer.
const maxResponseBytes = 256 << 20

// maxRequestBytes bounds any cluster-internal request body at the same
// figure: the largest request is an import carrying the bundle an export
// responded with. A variable only so that a test can cross it without a
// quarter-gigabyte body.
var maxRequestBytes int64 = maxResponseBytes

// decodeRequest decodes a cluster handler's JSON request body into v. A body
// past maxRequestBytes is answered 413 and a malformed one 400, before the
// handler acts on any of it; it reports whether v may be used.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, err.Error(), status)
	return false
}

// postJSON posts in as JSON to url and decodes the response into out
// (nil out discards the body). Non-2xx statuses become errors carrying
// the response text.
func postJSON(client *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("cluster: encoding request for %s: %w", url, err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return decodeResponse(resp, url, out)
}

// getJSON fetches url and decodes the response into out.
func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	return decodeResponse(resp, url, out)
}

func decodeResponse(resp *http.Response, url string, out any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return fmt.Errorf("cluster: reading %s response: %w", url, err)
	}
	if resp.StatusCode/100 != 2 {
		return &statusError{URL: url, Status: resp.StatusCode, Body: truncate(data, 256)}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("cluster: decoding %s response: %w", url, err)
	}
	return nil
}

// statusError is a non-2xx cluster-internal response.
type statusError struct {
	URL    string
	Status int
	Body   string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("cluster: %s returned %d: %s", e.URL, e.Status, e.Body)
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(b)
}

// backoffDelay is the bounded exponential ceiling used by every
// cluster-internal retry loop: base, 2×base, 4×base … capped at max.
func backoffDelay(attempt int, base, max time.Duration) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// jitteredBackoff draws the actual sleep for one retry: uniform in
// [ceiling/2, ceiling], where ceiling is backoffDelay's bounded
// exponential. Without the jitter every client that lost the same node
// retries on the same schedule, and a recovering node takes the whole
// reconnect storm in synchronized waves; the half-width spread keeps the
// exponential shape (attempt n never sleeps less than attempt n-1's
// ceiling) while decorrelating the arrivals.
func jitteredBackoff(attempt int, base, max time.Duration) time.Duration {
	d := backoffDelay(attempt, base, max)
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rand.Int64N(int64(d-half)+1))
}

// backoff waits out one jittered retry delay on clock. It returns false at
// once if done closes first (a nil done never does).
func backoff(clock obs.Clock, done <-chan struct{}, attempt int, base, max time.Duration) bool {
	t := clock.NewTimer(jitteredBackoff(attempt, base, max))
	defer t.Stop()
	select {
	case <-done:
		return false
	case <-t.C:
		return true
	}
}
