package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/obs"
)

// armChaos schedules every resolved action relative to the load start.
// Each action runs on its own timer so a kill awaiting its recovery never
// delays the next one.
func (st *runState) armChaos() {
	for i, a := range st.plan.Chaos {
		a := a
		idx := i
		st.chaosWG.Add(1)
		delay := time.Until(st.loadStart.Add(a.At))
		if delay < 0 {
			delay = 0
		}
		time.AfterFunc(delay, func() {
			defer st.chaosWG.Done()
			rec := ChaosRecord{At: a.At.String(), Action: a.Action, Target: a.Target}
			st.logf("chaos[%d] t+%v: %s %s", idx, a.At, a.Action, a.Target)
			st.execute(a, &rec)
			if rec.Error != "" {
				st.logf("chaos[%d] %s %s: %s", idx, a.Action, a.Target, rec.Error)
			}
			st.mu.Lock()
			st.chaosRecs = append(st.chaosRecs, rec)
			sort.Slice(st.chaosRecs, func(i, j int) bool { return st.chaosRecs[i].At < st.chaosRecs[j].At })
			st.mu.Unlock()
		})
	}
}

// execute runs one action: a SIGKILL of a serve node, awaited until the
// fleet has taken it over, or poison at the front door.
func (st *runState) execute(a ChaosAction, rec *ChaosRecord) {
	if a.Action == ActPoison {
		st.executePoison(a, rec)
		return
	}
	n, _ := strconv.Atoi(strings.TrimPrefix(a.Target, "node-")) // resolved and validated by the plan
	killedAt := time.Now()
	st.fleet.nodes[n-1].Kill()
	st.mu.Lock()
	st.kills++
	st.mu.Unlock()
	rec.Detail = "SIGKILL"
	if recov, err := st.awaitRecovery(killedAt); err != nil {
		rec.Error = err.Error()
	} else {
		rec.Recovery = recov.Round(time.Millisecond).String()
		st.logf("recovered from killing %s in %v", a.Target, recov.Round(time.Millisecond))
	}
}

// executePoison throws malformed and semantically poisoned input at the
// front door. Every event here must be refused: malformed JSONL and
// broken framing with 400, well-framed garbage as per-record rejects.
// Whatever the stack ACCEPTS is counted against slo.max_poison_accepted.
func (st *runState) executePoison(a ChaosAction, rec *ChaosRecord) {
	front := st.fleet.router
	count := a.Count
	if count <= 0 {
		count = 32
	}
	accepted := 0
	sent := 0

	// Malformed JSONL: truncated JSON, wrong shapes, non-JSON noise.
	garbage := []string{
		`{"time":"2025-03-01T00:00:00Z","addr":`,
		`not json at all`,
		`{"time":null,"addr":null,"class":null}`,
		`[]`,
	}
	for i := 0; i < count/4+1; i++ {
		line := garbage[i%len(garbage)]
		sent++
		code, res := st.rawPost(front.URL("/v1/events"), "application/x-ndjson", []byte(line+"\n"))
		if code == http.StatusOK {
			accepted += res.Accepted
		}
	}

	// Broken wire framing: random-ish bytes, no magic.
	sent++
	if code, res := st.rawPost(front.URL("/v1/events.bin"), "application/octet-stream",
		bytes.Repeat([]byte{0xde, 0xad, 0xbe, 0xef}, 8)); code == http.StatusOK {
		accepted += res.Accepted
	}

	// Well-framed poison: records that decode but must fail validation —
	// zero/pre-epoch/far-future timestamps and out-of-geometry rows.
	geo := st.plan.Profile.Geometry
	bank := hbm.BankAddress{}
	poisons := []mcelog.Event{
		{Time: time.Time{}, Addr: hbm.CellInBank(bank, 0, 0), Class: 1},
		{Time: time.Unix(-86400, 0), Addr: hbm.CellInBank(bank, 1, 1), Class: 1},
		{Time: time.Date(2250, 1, 1, 0, 0, 0, 0, time.UTC), Addr: hbm.CellInBank(bank, 2, 2), Class: 1},
		// Row within the wire encoding's bit width but past the geometry
		// (a wider row would silently overflow into the bank bits on pack
		// and come back as a different, VALID address — not poison at all).
		{Time: time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC),
			Addr: hbm.CellInBank(bank, geo.RowsPerBank, 0), Class: 1},
	}
	burst := mcelog.NewLog(count)
	for i := 0; i < count; i++ {
		burst.Append(poisons[i%len(poisons)])
	}
	sent += count
	var wire bytes.Buffer
	burst.WriteWire(st.plan.Profile, &wire) // a bytes.Buffer write cannot fail
	code, res := st.rawPost(front.URL("/v1/events.bin"), "application/octet-stream", wire.Bytes())
	if code == http.StatusOK {
		accepted += res.Accepted
	}

	st.mu.Lock()
	st.poisonSent += sent
	st.poisonAccpt += accepted
	st.mu.Unlock()
	rec.Detail = fmt.Sprintf("%d poisoned events, %d accepted", sent, accepted)
}

// rawPost posts a body without retry logic; poison must not be resent.
func (st *runState) rawPost(url, contentType string, body []byte) (int, ingestResult) {
	resp, err := st.client.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, ingestResult{}
	}
	defer resp.Body.Close()
	var res ingestResult
	json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&res)
	return resp.StatusCode, res
}

// awaitRecovery blocks until the cluster has absorbed a node kill: the
// control plane swept the dead member and journal-takeover rebuilt its
// sessions (takeovers advanced, membership shrank), and every surviving
// node plus the router report ready again.
func (st *runState) awaitRecovery(killedAt time.Time) (time.Duration, error) {
	st.mu.Lock()
	kills := st.kills
	st.mu.Unlock()
	alive := 0
	for _, n := range st.fleet.nodes {
		if n.Alive() {
			alive++
		}
	}
	cpURL := "http://" + st.fleet.control.Addr() + "/statsz"
	err := PollUntil("cluster recovery", 2*time.Minute, func() bool {
		var cp struct {
			Members   []struct{ ID string } `json:"members"`
			Takeovers uint64                `json:"takeovers"`
		}
		if GetJSON(st.client, cpURL, &cp) != http.StatusOK {
			return false
		}
		if int(cp.Takeovers) < kills || len(cp.Members) != alive {
			return false
		}
		for _, n := range st.fleet.nodes {
			if n.Alive() && GetJSON(st.client, n.URL("/readyz"), nil) != http.StatusOK {
				return false
			}
		}
		return GetJSON(st.client, st.fleet.router.URL("/readyz"), nil) == http.StatusOK
	})
	return time.Since(killedAt), err
}

// startProbes samples the front door's /readyz on a fixed cadence; the
// pass rate is the availability SLO input.
const probeInterval = 100 * time.Millisecond

func (st *runState) startProbes() {
	st.probes.Interval = probeInterval.String()
	st.probeWG.Add(1)
	go func() {
		defer st.probeWG.Done()
		client := &http.Client{Timeout: probeInterval}
		ticker := time.NewTicker(probeInterval)
		defer ticker.Stop()
		for {
			select {
			case <-st.probeStop:
				return
			case <-ticker.C:
				code := GetJSON(client, st.fleet.router.URL("/readyz"), nil)
				st.mu.Lock()
				st.probes.Samples++
				if code == http.StatusOK {
					st.probes.ReadyOK++
				}
				st.mu.Unlock()
			}
		}
	}()
}

func (st *runState) stopProbes(rep *Report) {
	close(st.probeStop)
	st.probeWG.Wait()
	st.mu.Lock()
	rep.Probes = st.probes
	st.mu.Unlock()
	if rep.Probes.Samples > 0 {
		rep.Probes.Availab = float64(rep.Probes.ReadyOK) / float64(rep.Probes.Samples)
	}
}

// drain waits until every live serve node has processed all it ingested.
func (st *runState) drain() error {
	for _, n := range st.fleet.nodes {
		if !n.Alive() {
			continue
		}
		if err := WaitDrained(n); err != nil {
			return fmt.Errorf("chaos: %s: %w", n.Name, err)
		}
	}
	return nil
}

// collectStats scrapes final /statsz and /metrics off every live node.
func (st *runState) collectStats(rep *Report) {
	for _, n := range st.fleet.nodes {
		if !n.Alive() {
			continue
		}
		var stz struct {
			Quarantined uint64 `json:"quarantined"`
		}
		if GetJSON(st.client, n.URL("/statsz"), &stz) == http.StatusOK {
			rep.Load.Quarantined += stz.Quarantined
		}
		snap, err := obs.Scrape(st.client, n.URL("/metrics"))
		if err != nil {
			continue
		}
		if p99, ok := snap.Quantile("cordial_stage_seconds", 0.99, obs.L("stage", "queue_wait")); ok && p99 > rep.Load.P99IngestWait {
			rep.Load.P99IngestWait = p99
		}
	}
}

// compareVerdicts unions the live nodes' deduplicated action sets and
// diffs them against the reference.
func (st *runState) compareVerdicts(rep *Report, want map[string]bool) {
	got := map[string]bool{}
	for _, n := range st.fleet.nodes {
		if !n.Alive() {
			continue
		}
		set, err := ActionSet(n)
		if err != nil {
			rep.Verdict.Extra = append(rep.Verdict.Extra, "scrape error: "+err.Error())
			return
		}
		for k := range set {
			got[k] = true
		}
	}
	rep.Verdict.Compared = true
	rep.Verdict.Fleet = len(got)
	for k := range want {
		if !got[k] {
			rep.Verdict.Missing = append(rep.Verdict.Missing, k)
		}
	}
	for k := range got {
		if !want[k] {
			rep.Verdict.Extra = append(rep.Verdict.Extra, k)
		}
	}
	sort.Strings(rep.Verdict.Missing)
	sort.Strings(rep.Verdict.Extra)
	const keep = 50
	if len(rep.Verdict.Missing) > keep {
		rep.Verdict.Missing = rep.Verdict.Missing[:keep]
	}
	if len(rep.Verdict.Extra) > keep {
		rep.Verdict.Extra = rep.Verdict.Extra[:keep]
	}
}

// ActionSet fetches /v1/actions and reduces it to the deduplicated
// comparison set (recovery re-emits actions at least once, so comparisons
// are on sets, never counts).
func ActionSet(d *Daemon) (map[string]bool, error) {
	var acts struct {
		Actions []struct {
			Kind  string `json:"kind"`
			Bank  string `json:"bank"`
			Rows  []int  `json:"rows"`
			Class string `json:"class"`
		} `json:"actions"`
	}
	if code := GetJSON(nil, d.URL("/v1/actions?limit=1000000"), &acts); code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/actions = %d", code)
	}
	set := make(map[string]bool, len(acts.Actions))
	for _, a := range acts.Actions {
		set[fmt.Sprintf("%s|%s|%v|%s", a.Kind, a.Bank, a.Rows, a.Class)] = true
	}
	return set, nil
}

// WaitDrained polls /statsz until processed catches up with ingested.
func WaitDrained(d *Daemon) error {
	return PollUntil(d.Name+" drained", 2*time.Minute, func() bool {
		var stz struct {
			Ingested  uint64 `json:"ingested"`
			Processed uint64 `json:"processed"`
		}
		return GetJSON(nil, d.URL("/statsz"), &stz) == http.StatusOK &&
			stz.Processed == stz.Ingested
	})
}

// GetJSON fetches url, decoding the body into out when non-nil. A
// transport error returns status 0.
func GetJSON(client *http.Client, url string, out any) int {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	resp, err := client.Get(url)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(out); err != nil {
			return 0
		}
	} else {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	}
	return resp.StatusCode
}

// PollUntil polls cond every 50ms until it holds or the deadline passes.
func PollUntil(what string, limit time.Duration, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return nil
}
