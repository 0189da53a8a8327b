package cluster

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"cordial/internal/mcelog"
)

// TestSweepRacesConcurrentJoin drives the dead-node sweep and a fresh
// node's join into the control plane at the same moment. The two
// topology mutations serialise on the topo lock in whichever order the
// race resolves, and each re-reads membership and fences with its own
// incremented epoch — so the final ring must contain exactly the
// survivor and the joiner, every bank's state must live on its final
// ring owner with nothing lost, and no stale owner may still accept
// ingest for a moved bank (the double-ownership failure this guards
// against).
func TestSweepRacesConcurrentJoin(t *testing.T) {
	cp, cpSrv, n1, n2, clock := startLeasedPair(t)

	// Load both nodes so the takeover and the join both move real state.
	ring, err := BuildRing(cp.Descriptor())
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[string]*testNode{"n1": n1, "n2": n2}
	const banks, rowsPer = 8, 4
	deadBanks := 0
	for b := 0; b < banks; b++ {
		bank := clusterBank(b)
		owner := ring.OwnerID(bank.BankKey())
		if owner == "n2" {
			deadBanks++
		}
		var evs []mcelog.Event
		for r := 1; r <= rowsPer; r++ {
			evs = append(evs, clusterUER(bank, r, b*100+r))
		}
		status, res := postEvents(t, nodes[owner].http.URL, evs)
		if status != http.StatusOK || res.Accepted != rowsPer {
			t.Fatalf("ingest at %s: status %d result %+v", owner, status, res)
		}
	}
	if deadBanks == 0 {
		t.Fatal("no banks on the node being killed; widen the bank set")
	}
	if err := n2.engine.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Kill n2 and expire its lease while n1 stays fresh.
	n2.stop()
	n2.http.Close()
	expireLease(t, cp, clock)

	// Fire the sweep and the join together. startNode's agent registers
	// from its own goroutine, so both mutations hit the topo lock
	// concurrently; epoch ordering decides who goes first. n3 is on the
	// system clock: a join that loses the race backs off for real, ≤ 200 ms.
	sweepDone := make(chan struct{})
	go func() {
		defer close(sweepDone)
		cp.Sweep()
	}()
	n3 := startNode(t, cpSrv.URL, "n3")
	<-sweepDone
	waitFor(t, "takeover recorded", func() bool { return cp.takeovers.Value() == 1 })
	waitFor(t, "n3 joined and published", func() bool { return n3.agent.Epoch() >= 3 && cp.Descriptor().Epoch >= 4 })

	// Whatever order the race resolved in, two mutations happened on top
	// of epoch 2: the ring is at epoch 4 with exactly {n1, n3}.
	desc := cp.Descriptor()
	if desc.Epoch != 4 {
		t.Errorf("final epoch = %d, want 4 (two serialised mutations)", desc.Epoch)
	}
	ids := map[string]bool{}
	for _, m := range desc.Members {
		ids[m.ID] = true
	}
	if len(ids) != 2 || !ids["n1"] || !ids["n3"] {
		t.Fatalf("final members = %v, want exactly {n1, n3}", desc.Members)
	}

	// Both live nodes must converge on the final epoch before ownership
	// is probed, or a fenced-but-stale view could still answer.
	live := map[string]*testNode{"n1": n1, "n3": n3}
	for id, n := range live {
		n := n
		waitFor(t, id+" adopts final ring", func() bool { return n.agent.Epoch() == desc.Epoch })
	}

	// No bank lost, none duplicated: every bank's full session sits on
	// its final ring owner, and the other node refuses ingest for it.
	finalRing, err := BuildRing(desc)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < banks; b++ {
		bank := clusterBank(b)
		owner := finalRing.OwnerID(bank.BankKey())
		waitFor(t, fmt.Sprintf("bank %v on %s", bank, owner), func() bool {
			st, ok := live[owner].engine.Session(bank)
			return ok && st.Events == rowsPer
		})
		for id, n := range live {
			if id == owner {
				continue
			}
			probe := []mcelog.Event{clusterUER(bank, rowsPer+1, b*100+99)}
			status, res := postEvents(t, n.http.URL, probe)
			if status != http.StatusServiceUnavailable || res.Accepted != 0 {
				t.Errorf("non-owner %s accepted ingest for bank %v: status %d %+v (double ownership)",
					id, bank, status, res)
			}
		}
	}
}
