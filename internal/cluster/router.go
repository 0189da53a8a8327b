package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/obs"
	"cordial/internal/stream"
)

// RouterConfig configures the stateless ingest front.
type RouterConfig struct {
	// ControlPlane is the control plane's base URL.
	ControlPlane string
	// MaxAttempts bounds forwarding attempts per node batch (first try
	// included). Default 5.
	MaxAttempts int
	// Backoff is the initial retry delay, doubling per attempt up to
	// backoffCap. Default 50ms.
	Backoff time.Duration
	// RefreshInterval is the background ring poll period. Default 2s.
	// (503 responses also trigger an immediate refresh.)
	RefreshInterval time.Duration
	// MaxBodyBytes caps one POST /v1/events body, and so one JSONL line.
	// Default 32 MiB.
	MaxBodyBytes int64
	// Logger defaults to slog.Default().
	Logger *slog.Logger
	// Client is the HTTP client for node and control-plane calls.
	// Default: 30s timeout.
	Client *http.Client
}

// backoffCap bounds the router's doubling retry delay.
const backoffCap = 2 * time.Second

func (c RouterConfig) withDefaults() RouterConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.Backoff <= 0 {
		c.Backoff = 50 * time.Millisecond
	}
	if c.RefreshInterval <= 0 {
		c.RefreshInterval = 2 * time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return c
}

// Router is the stateless ingest front: it splits a batch (JSONL or wire
// frames) by bank owner under the current ring, forwards each slice to its
// node as wire frames, and merges the per-node results. A 503 not-owned
// answer (a node fenced mid-handoff, or the router's ring is stale)
// refreshes the ring and resends exactly the unconsumed suffix — the
// consumed-prefix contract keeps per-bank event order intact across retries
// because a bank's lines only ever move forward, in order, to exactly one
// live owner.
type Router struct {
	cfg RouterConfig
	mux *http.ServeMux

	forwards  *obs.Counter
	retries   *obs.Counter
	failures  *obs.Counter
	refreshes *obs.Counter
	lines     *obs.Counter

	mu   sync.Mutex
	ring *Ring
}

// NewRouter builds the router. Call Run to keep its ring fresh.
func NewRouter(cfg RouterConfig) *Router {
	rt := &Router{cfg: cfg.withDefaults(), mux: http.NewServeMux()}
	reg := obs.NewRegistry() // served on the router's own /metrics
	rt.forwards = reg.Counter("cordial_router_forwards_total",
		"Per-node batch forwards attempted.")
	rt.retries = reg.Counter("cordial_router_retries_total",
		"Forwards retried after a refusal, error or stale ring.")
	rt.failures = reg.Counter("cordial_router_failures_total",
		"Node batches abandoned after exhausting retries.")
	rt.refreshes = reg.Counter("cordial_router_ring_refreshes_total",
		"Ring descriptor fetches from the control plane.")
	rt.lines = reg.Counter("cordial_router_lines_total",
		"JSONL event lines routed.")
	reg.GaugeFunc("cordial_router_ring_epoch",
		"Ring epoch the router currently routes under (0 = no ring yet).",
		func() float64 {
			rt.mu.Lock()
			defer rt.mu.Unlock()
			if rt.ring == nil {
				return 0
			}
			return float64(rt.ring.Epoch())
		})
	rt.mux.HandleFunc("POST /v1/events", rt.handleIngest(mcelog.JSONL))
	rt.mux.HandleFunc("POST /v1/events.bin", rt.handleIngest(mcelog.Wire))
	rt.mux.HandleFunc("GET /statsz", rt.handleStats)
	rt.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	rt.mux.HandleFunc("GET /readyz", rt.handleReady)
	rt.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WriteText(w)
	})
	return rt
}

// ServeHTTP serves the router API; every response is no-store (routing
// answers describe this instant).
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	rt.mux.ServeHTTP(w, r)
}

// Run fetches the initial ring (retrying until ctx ends) and then keeps
// it fresh on a timer.
func (rt *Router) Run(ctx context.Context) error {
	for attempt := 0; rt.currentRing() == nil; attempt++ {
		if err := rt.refreshRing(); err != nil {
			rt.cfg.Logger.Warn("ring fetch failed; retrying", "err", err)
			if !backoff(obs.SystemClock{}, ctx.Done(), attempt, 200*time.Millisecond, 5*time.Second) {
				return ctx.Err()
			}
		}
	}
	tick := obs.SystemClock{}.NewTicker(rt.cfg.RefreshInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			if err := rt.refreshRing(); err != nil {
				rt.cfg.Logger.Warn("ring refresh failed", "err", err)
			}
		}
	}
}

func (rt *Router) currentRing() *Ring {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ring
}

// refreshRing fetches the control plane's descriptor; the ring only
// moves forward epoch-wise.
func (rt *Router) refreshRing() error {
	var desc Descriptor
	if err := getJSON(rt.cfg.Client, rt.cfg.ControlPlane+"/cluster/v1/ring", &desc); err != nil {
		return err
	}
	rt.refreshes.Inc()
	if len(desc.Members) == 0 {
		return nil // empty cluster: keep whatever ring we have
	}
	ring, err := BuildRing(desc)
	if err != nil {
		return err
	}
	rt.mu.Lock()
	if rt.ring == nil || ring.Epoch() > rt.ring.Epoch() {
		rt.ring = ring
	}
	rt.mu.Unlock()
	return nil
}

// routedLine is one parsed event awaiting forwarding, with its bank key.
type routedLine struct {
	ev  mcelog.Event
	key uint64
}

// handleIngest serves both ingest routes, the route naming its body's
// codec, as the serve node's own handler does: it splits the batch by owner
// and forwards each slice. Records decode and key under the profile the ring
// descriptor names, checked — one whose packed

// address has bits outside the layout is rejected here, since re-encoding
// it would forward the bank it aliases onto — and a record the router
// cannot decode is rejected here too, as it has no owner to forward it to.
// Geometry validation stays on the serve nodes, which know the fleet's
// shape. How the body ends (a corrupt frame, a disconnect, a body over
// MaxBodyBytes) is stream.IngestResult.EndBody's; what was read before is
// forwarded either way.
func (rt *Router) handleIngest(codec mcelog.Codec) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ring := rt.currentRing()
		if ring == nil {
			http.Error(w, "no ring yet", http.StatusServiceUnavailable)
			return
		}
		prof := ring.Profile() // fixed for the cluster's life, so any epoch's will do
		var body mcelog.BodyReader
		body.Reset(prof, codec, http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes), int(rt.cfg.MaxBodyBytes)+1)
		var agg stream.IngestResult
		var lines []routedLine
		var end error
		for end == nil {
			ev, err := body.Next()
			switch err.(type) {
			case nil:
				lines = append(lines, routedLine{ev: ev, key: prof.Layout.BankKey(ev.Addr)})
			case *mcelog.RecordError:
				agg.Reject(err)
			default:
				end = err
			}
		}
		status := agg.EndBody(body.Pos(), end)
		rt.lines.Add(uint64(len(lines)))
		rt.forward(prof, lines, &agg)
		if agg.Epoch == 0 {
			if ring := rt.currentRing(); ring != nil {
				agg.Epoch = ring.Epoch()
			}
		}
		writeJSON(w, status, agg)
	}
}

// forward delivers lines to their owners, retrying refused or failed
// slices against fresh rings until attempts run out. Grouping preserves
// input order within each node slice, so per-bank order is preserved
// end to end (one bank → one owner at a time).
func (rt *Router) forward(prof *hbm.Profile, lines []routedLine, agg *stream.IngestResult) {
	for attempt := 0; len(lines) > 0 && attempt < rt.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			rt.retries.Inc()
			backoff(obs.SystemClock{}, nil, attempt-1, rt.cfg.Backoff, backoffCap)
		}
		ring := rt.currentRing()
		groups := make(map[string][]routedLine)
		var order []string // deterministic forwarding order for tests/logs
		for _, ln := range lines {
			m, ok := ring.Owner(ln.key)
			if !ok {
				continue // unreachable: rings are never empty
			}
			if _, seen := groups[m.ID]; !seen {
				order = append(order, m.ID)
			}
			groups[m.ID] = append(groups[m.ID], ln)
		}
		var carry []routedLine
		staleRing := false
		for _, id := range order {
			group := groups[id]
			m, _ := ring.Member(id)
			res, err := rt.postBatch(prof, m, group)
			if err != nil {
				rt.cfg.Logger.Warn("forward failed", "node", id, "lines", len(group), "err", err)
				carry = append(carry, group...) // whole slice unconsumed
				staleRing = true                // the node may be gone; re-resolve owners
				continue
			}
			agg.Accepted += res.Accepted
			agg.Rejected += res.Rejected
			agg.Dropped += res.Dropped
			for _, e := range res.Errors {
				agg.Note("node %s: %s", id, e)
			}
			if res.Epoch > agg.Epoch {
				agg.Epoch = res.Epoch
			}
			if res.NotOwned > 0 {
				// Consumed-prefix contract: the node landed (or rejected)
				// exactly consumed lines, then refused the rest.
				consumed := res.Accepted + res.Rejected + res.Dropped
				carry = append(carry, group[consumed:]...)
				staleRing = true
			}
		}
		lines = carry
		if staleRing && len(lines) > 0 {
			if err := rt.refreshRing(); err != nil {
				rt.cfg.Logger.Warn("ring refresh after refusal failed", "err", err)
			}
		}
	}
	if len(lines) > 0 {
		rt.failures.Inc()
		agg.Dropped += len(lines)
		agg.Truncated = true
		agg.Note("%d lines undeliverable after %d attempts", len(lines), rt.cfg.MaxAttempts)
	}
}

// postBatch sends one node its slice of the batch as wire frames on
// /v1/events.bin — the one upstream codec: every serve node has the
// endpoint, and the frames are what it journals. Any 2xx or a 503 carrying
// an IngestResult body parses as a result; everything else is an error
// (the caller re-resolves owners and retries).
func (rt *Router) postBatch(prof *hbm.Profile, m Member, group []routedLine) (stream.IngestResult, error) {
	rt.forwards.Inc()
	var buf bytes.Buffer
	enc := mcelog.NewFrameEncoderFor(prof, &buf, 0)
	for _, ln := range group {
		if err := enc.Add(ln.ev); err != nil {
			return stream.IngestResult{}, fmt.Errorf("framing event for node %s: %w", m.ID, err)
		}
	}
	if err := enc.Flush(); err != nil {
		return stream.IngestResult{}, fmt.Errorf("framing batch for node %s: %w", m.ID, err)
	}
	resp, err := rt.cfg.Client.Post("http://"+m.Addr+"/v1/events.bin", "application/octet-stream", &buf)
	if err != nil {
		return stream.IngestResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 && resp.StatusCode != http.StatusServiceUnavailable {
		return stream.IngestResult{}, fmt.Errorf("node %s: status %d", m.ID, resp.StatusCode)
	}
	var res stream.IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return stream.IngestResult{}, fmt.Errorf("node %s: %d with undecodable body: %w", m.ID, resp.StatusCode, err)
	}
	if resp.StatusCode == http.StatusServiceUnavailable && res.NotOwned == 0 {
		// 503 without the not-owned marker: engine closed/unready.
		return stream.IngestResult{}, fmt.Errorf("node %s: unavailable", m.ID)
	}
	return res, nil
}

// handleReady: the router can route once it has a non-empty ring.
func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	ring := rt.currentRing()
	out := struct {
		Ready   bool     `json:"ready"`
		Reasons []string `json:"reasons,omitempty"`
		Epoch   uint64   `json:"epoch,omitempty"`
	}{Ready: ring != nil && ring.Len() > 0}
	if ring != nil {
		out.Epoch = ring.Epoch()
	} else {
		out.Reasons = []string{"no ring from control plane yet"}
	}
	status := http.StatusOK
	if !out.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, out)
}

// handleStats aggregates /statsz from every ring member, keyed by node
// ID, plus the router's own counters.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	ring := rt.currentRing()
	out := struct {
		Epoch    uint64                     `json:"epoch"`
		Forwards uint64                     `json:"forwards"`
		Retries  uint64                     `json:"retries"`
		Failures uint64                     `json:"failures"`
		Lines    uint64                     `json:"linesRouted"`
		Nodes    map[string]json.RawMessage `json:"nodes"`
	}{
		Forwards: rt.forwards.Value(),
		Retries:  rt.retries.Value(),
		Failures: rt.failures.Value(),
		Lines:    rt.lines.Value(),
		Nodes:    map[string]json.RawMessage{},
	}
	if ring != nil {
		out.Epoch = ring.Epoch()
		for _, m := range ring.Descriptor().Members {
			var raw json.RawMessage
			if err := getJSON(rt.cfg.Client, "http://"+m.Addr+"/statsz", &raw); err != nil {
				msg, _ := json.Marshal(struct {
					Error string `json:"error"`
				}{err.Error()})
				raw = msg
			}
			out.Nodes[m.ID] = raw
		}
	}
	writeJSON(w, http.StatusOK, out)
}
