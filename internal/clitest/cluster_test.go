package clitest

import (
	"bytes"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cordial/internal/chaos"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
)

// TestCLIClusterFailover is the distributed-serving e2e: a three-node
// cluster behind cordial-router, one node SIGKILLed mid-stream. The
// control plane must rebuild the dead node's sessions from its journal
// onto the survivors (snapshot + WAL-suffix takeover), the router must
// ride out the failover with its bounded retries, and the cluster's
// final deduplicated action set must equal that of a single node that
// ingested the same log alone.
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
	nodes := make(map[string]*chaos.Daemon, 3)
	for _, id := range []string{"n1", "n2", "n3"} {
		nodes[id] = startServe(t, bin, serveArgs(filepath.Join(work, "wal-"+id),
			"-control-plane", cp.URL(""), "-node-id", id, "-heartbeat", "100ms")...)
	}
	var cpStats struct {
		Epoch   uint64 `json:"epoch"`
		Members []struct {
			ID string `json:"id"`
		} `json:"members"`
		Takeovers uint64 `json:"takeovers"`
	}
	check(t, chaos.PollUntil("all nodes registered", 30*time.Second, func() bool {
		return chaos.GetJSON(nil, cp.URL("/statsz"), &cpStats) == http.StatusOK && len(cpStats.Members) == 3
	}))

	// Router: generous retries so a batch can ride out the whole failover
	// window (heartbeat TTL + sweep + takeover) on backoff alone.
	router := startDaemon(t, bin, "cordial-router",
		"-addr", "127.0.0.1:0", "-control-plane", cp.URL(""),
		"-refresh-interval", "200ms", "-max-attempts", "8")
	routerReady := func() bool { return chaos.GetJSON(nil, router.URL("/readyz"), nil) == http.StatusOK }
	check(t, chaos.PollUntil("router ready", 30*time.Second, routerReady))

	// First half through the router, spread across all three nodes.
	ingest(t, router, "/v1/events", firstHalf, half)
	for id, n := range nodes {
		check(t, chaos.WaitDrained(n))
		var st map[string]any
		if chaos.GetJSON(nil, n.URL("/statsz"), &st) == http.StatusOK && int(st["sessionsLive"].(float64)) == 0 {
			t.Logf("note: node %s holds no sessions after first half", id)
		}
	}

	// SIGKILL one node mid-stream: no drain, no snapshot, no goodbye. Its
	// accepted events exist only in its journal.
	nodes["n2"].Kill()

	// Second half through the router while the control plane detects the
	// death and reassigns the victim's banks to the survivors.
	ingest(t, router, "/v1/events.bin", secondHalf.Bytes(), len(lines)-half)
	check(t, chaos.PollUntil("takeover recorded", 30*time.Second, func() bool {
		return chaos.GetJSON(nil, cp.URL("/statsz"), &cpStats) == http.StatusOK &&
			cpStats.Takeovers == 1 && len(cpStats.Members) == 2
	}))
	// Both survivors and the router must be ready again after failover.
	for _, id := range []string{"n1", "n3"} {
		check(t, chaos.PollUntil(id+" ready after failover", 30*time.Second, func() bool {
			return chaos.GetJSON(nil, nodes[id].URL("/readyz"), nil) == http.StatusOK
		}))
		check(t, chaos.WaitDrained(nodes[id]))
	}
	check(t, chaos.PollUntil("router ready after failover", 30*time.Second, routerReady))

	// Zero verdict loss: the union of the survivors' deduplicated action
	// sets must equal the single-node reference exactly. The victim's
	// pre-crash actions reappear here because takeover replays its
	// journal on the survivors (at-least-once, same as crash recovery).
	got := map[string]bool{}
	for _, id := range []string{"n1", "n3"} {
		set, err := chaos.ActionSet(nodes[id])
		check(t, err)
		for k := range set {
			got[k] = true
		}
	}
	sameActions(t, "cluster", want, got)

	// Router /statsz aggregates per-node stats under their ring IDs.
	var rstats struct {
		Epoch uint64                    `json:"epoch"`
		Nodes map[string]map[string]any `json:"nodes"`
	}
	if code := chaos.GetJSON(nil, router.URL("/statsz"), &rstats); code != http.StatusOK {
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
