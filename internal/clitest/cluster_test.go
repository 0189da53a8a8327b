package clitest

import (
	"bytes"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
)

// The failover smoke's service levels: the fleet has recovered within
// recoveryBound of the kill, and the router's /readyz, sampled every
// probeInterval from before the kill until recovery, answered 200 at least
// minAvailability of the time.
const (
	recoveryBound   = 30 * time.Second
	probeInterval   = 100 * time.Millisecond
	minAvailability = 0.85
)

// TestCLIClusterFailover is the real-binary smoke of distributed serving: a
// three-node cluster behind cordial-router, one node SIGKILLed mid-stream and
// poison thrown at the front door during the failover. Each of its four
// checks fails under its own name:
//   - zero verdict loss: the survivors' deduplicated action set equals that
//     of a single node that ingested the same log alone — the control plane
//     rebuilds the dead node's sessions from its journal (snapshot +
//     WAL-suffix takeover) and the router rides out the failover on its
//     bounded retries;
//   - zero poison accepted: malformed JSONL, a broken wire frame and
//     well-framed records that must fail validation are all refused;
//   - recovery: the takeover is recorded and both survivors and the router
//     answer /readyz within recoveryBound of the kill;
//   - availability: the router's /readyz probe, from before the kill until
//     recovery, answers 200 at least minAvailability of the time.
func TestCLIClusterFailover(t *testing.T) {
	bin := buildAll(t)
	work := t.TempDir()
	logBytes, lines := jsonlFleet(t, bin, "-seed", "21", "-uer-banks", "30", "-benign-banks", "20")
	half := len(lines) / 2
	firstHalf := []byte(strings.Join(lines[:half], "\n") + "\n")
	// The second half travels as wire frames, through the router's binary
	// door and its binary forwarding.
	rest, err := mcelog.ReadLog(hbm.HBM2E, strings.NewReader(strings.Join(lines[half:], "\n")))
	check(t, err)
	var secondHalf bytes.Buffer
	check(t, rest.WriteWire(hbm.HBM2E, &secondHalf))

	// Every daemon self-trains the same (deterministic) model so the
	// cluster and the reference make identical decisions.
	serveArgs := func(walDir string, extra ...string) []string {
		return append([]string{"-train-banks", "30", "-trees", "8",
			"-wal-dir", walDir, "-fsync", "never"}, extra...)
	}

	// Reference: one node, the whole log, no failures.
	want := reference(t, startServe(t, bin, serveArgs(filepath.Join(work, "wal-ref"))...), logBytes, len(lines))

	// Control plane with test-speed failure detection.
	cp := startDaemon(t, bin, "cordial-control",
		"-addr", "127.0.0.1:0", "-heartbeat-ttl", "1s", "-sweep-interval", "300ms")

	// Three serve nodes join; handoffs at this point are empty.
	nodes := make(map[string]*Daemon, 3)
	for _, id := range []string{"n1", "n2", "n3"} {
		nodes[id] = startServe(t, bin, serveArgs(filepath.Join(work, "wal-"+id),
			"-control-plane", cp.URL(""), "-node-id", id, "-heartbeat", "100ms")...)
	}
	type cpStats struct {
		Members   []struct{ ID string } `json:"members"`
		Takeovers uint64                `json:"takeovers"`
	}
	check(t, PollUntil("all nodes registered", 30*time.Second, func() bool {
		var st cpStats
		return GetJSON(nil, cp.URL("/statsz"), &st) == http.StatusOK && len(st.Members) == 3
	}))

	// Router: generous retries so a batch can ride out the whole failover
	// window (heartbeat TTL + sweep + takeover) on backoff alone.
	router := startDaemon(t, bin, "cordial-router",
		"-addr", "127.0.0.1:0", "-control-plane", cp.URL(""),
		"-refresh-interval", "200ms", "-max-attempts", "8")
	ready := func(d *Daemon) bool { return GetJSON(nil, d.URL("/readyz"), nil) == http.StatusOK }
	check(t, PollUntil("router ready", 30*time.Second, func() bool { return ready(router) }))

	// First half through the router, spread across all three nodes.
	ingest(t, router, "/v1/events", firstHalf, half)
	for id, n := range nodes {
		check(t, WaitDrained(n))
		var st map[string]any
		if GetJSON(nil, n.URL("/statsz"), &st) == http.StatusOK && int(st["sessionsLive"].(float64)) == 0 {
			t.Logf("note: node %s holds no sessions after first half", id)
		}
	}

	// SIGKILL one node mid-stream: no drain, no snapshot, no goodbye. Its
	// accepted events exist only in its journal. The probe and the recovery
	// watch run beside the rest of the stream.
	stopProbe := probeReady(router.URL("/readyz"))
	killedAt := time.Now()
	nodes["n2"].Kill()
	var (
		recovery     time.Duration
		recoveryErr  error
		availability float64
		samples      int
		recovered    = make(chan struct{})
	)
	go func() {
		defer close(recovered)
		recoveryErr = PollUntil("the takeover and every survivor and the router ready", recoveryBound, func() bool {
			var st cpStats
			return GetJSON(nil, cp.URL("/statsz"), &st) == http.StatusOK && st.Takeovers == 1 && len(st.Members) == 2 &&
				ready(nodes["n1"]) && ready(nodes["n3"]) && ready(router)
		})
		recovery = time.Since(killedAt)
		availability, samples = stopProbe()
	}()

	// Poison at the front door while the control plane detects the death.
	poisonSent, poisonAccepted := throwPoison(t, router)

	// Second half through the router while the control plane reassigns the
	// victim's banks to the survivors.
	second := post(t, router, "/v1/events.bin", http.StatusOK, secondHalf.Bytes())

	<-recovered
	t.Logf("recovery %v; availability %.2f over %d probes; %d of %d poison events accepted",
		recovery.Round(time.Millisecond), availability, samples, poisonAccepted, poisonSent)
	if recoveryErr != nil {
		t.Errorf("recovery: not recovered %v after the kill (bound %v): %v", recovery.Round(time.Millisecond), recoveryBound, recoveryErr)
	}
	if availability < minAvailability {
		t.Errorf("availability: the router's /readyz answered 200 in %.2f of %d probes, want ≥ %.2f", availability, samples, minAvailability)
	}
	if poisonAccepted != 0 {
		t.Errorf("poison: %d of %d poison events accepted at the front door, want 0", poisonAccepted, poisonSent)
	}
	if int(second["accepted"].(float64)) != len(lines)-half {
		t.Fatalf("POST /v1/events.bin: %v, want %d accepted", second, len(lines)-half)
	}
	for _, id := range []string{"n1", "n3"} {
		check(t, WaitDrained(nodes[id]))
	}

	// Zero verdict loss: the union of the survivors' deduplicated action
	// sets must equal the single-node reference exactly. The victim's
	// pre-crash actions reappear here because takeover replays its
	// journal on the survivors (at-least-once, same as crash recovery).
	got := map[string]bool{}
	for _, id := range []string{"n1", "n3"} {
		set, err := ActionSet(nodes[id])
		check(t, err)
		for k := range set {
			got[k] = true
		}
	}
	sameActions(t, "verdict loss: the cluster", want, got)

	// Router /statsz aggregates per-node stats under their ring IDs.
	var rstats struct {
		Nodes map[string]map[string]any `json:"nodes"`
	}
	if code := GetJSON(nil, router.URL("/statsz"), &rstats); code != http.StatusOK {
		t.Fatalf("router statsz = %d", code)
	}
	for _, id := range []string{"n1", "n3"} {
		if _, ok := rstats.Nodes[id]; !ok {
			t.Errorf("router statsz missing node %s: %v", id, rstats.Nodes)
		}
	}

	// Graceful teardown: survivors leave cleanly (SIGTERM triggers a
	// cluster leave, then drain).
	stop(t, nodes["n1"])
	stop(t, nodes["n3"])
}

// probeReady GETs url every probeInterval, the first time before it returns,
// until the stop it returns is called. stop returns the share of the samples
// that answered 200, and their number.
func probeReady(url string) (stop func() (float64, int)) {
	client := &http.Client{Timeout: probeInterval}
	ok, samples := 0, 0
	sample := func() {
		samples++
		if GetJSON(client, url, nil) == http.StatusOK {
			ok++
		}
	}
	sample()
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(probeInterval)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return func() (float64, int) {
		close(quit)
		<-done
		return float64(ok) / float64(samples), samples
	}
}

// throwPoison posts what the front door must refuse, each body once and
// without retry: malformed JSONL, a broken wire frame, and well-framed
// records that decode but fail validation — zero, pre-epoch and far-future
// times, and a row past the geometry. It returns the events sent and the
// number the router's answers count as accepted.
func throwPoison(t *testing.T, router *Daemon) (sent, accepted int) {
	t.Helper()
	jsonl := strings.Join([]string{
		`{"time":"2025-03-01T00:00:00Z","addr":`,
		`not json at all`,
		`{"time":null,"addr":null,"class":null}`,
		`[]`,
	}, "\n") + "\n"
	bank := hbm.BankAddress{}
	poisons := []mcelog.Event{
		{Time: time.Time{}, Addr: hbm.CellInBank(bank, 0, 0), Class: ecc.ClassCE},
		{Time: time.Unix(-86400, 0), Addr: hbm.CellInBank(bank, 1, 1), Class: ecc.ClassCE},
		{Time: time.Date(2250, 1, 1, 0, 0, 0, 0, time.UTC), Addr: hbm.CellInBank(bank, 2, 2), Class: ecc.ClassCE},
		// A row within the wire's bit width but past the geometry: a wider
		// one would overflow into the bank bits on pack and come back as
		// another, valid address.
		{Time: time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC),
			Addr: hbm.CellInBank(bank, hbm.HBM2E.Geometry.RowsPerBank, 0), Class: ecc.ClassCE},
	}
	burst := make([]mcelog.Event, 32)
	for i := range burst {
		burst[i] = poisons[i%len(poisons)]
	}
	var framed bytes.Buffer
	check(t, mcelog.FromEvents(burst).WriteWire(hbm.HBM2E, &framed))
	for _, b := range []struct {
		path   string
		events int
		body   []byte
	}{
		{"/v1/events", 4, []byte(jsonl)},
		{"/v1/events.bin", 1, bytes.Repeat([]byte{0xde, 0xad, 0xbe, 0xef}, 8)},
		{"/v1/events.bin", len(burst), framed.Bytes()},
	} {
		sent += b.events
		resp, err := http.Post(router.URL(b.path), "application/octet-stream", bytes.NewReader(b.body))
		check(t, err)
		var res struct {
			Accepted int `json:"accepted"`
		}
		json.NewDecoder(resp.Body).Decode(&res) // an answer without a count accepted nothing
		resp.Body.Close()
		accepted += res.Accepted
	}
	return sent, accepted
}
