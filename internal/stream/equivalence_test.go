package stream

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"cordial/internal/core"
	"cordial/internal/faultsim"
	"cordial/internal/hbm"
	"cordial/internal/trace"
)

// trainedPipeline caches one small fitted pipeline per test binary; Random
// Forest training is the expensive part of these tests.
var trainedPipeline = sync.OnceValues(func() (*core.Pipeline, error) {
	spec := trace.DefaultSpec(hbm.DefaultGeometry)
	spec.UERBanks = 80
	spec.BenignBanks = 0
	spec.Seed = 11
	fleet, err := trace.Generate(spec)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(core.RandomForest)
	cfg.Params = core.ModelParams{Trees: 12, Depth: 8}
	pipe, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := pipe.Fit(fleet.Faults); err != nil {
		return nil, err
	}
	return pipe, nil
})

// bankVerdict aggregates everything a bank's replay decided.
type bankVerdict struct {
	bankSpared bool
	rows       []int
	classified bool
	class      faultsim.Class
}

func (v bankVerdict) String() string {
	return fmt.Sprintf("spared=%v classified=%v class=%v rows=%v",
		v.bankSpared, v.classified, v.class, v.rows)
}

// TestOnlineOfflineEquivalence is the online/offline skew gate: a seeded
// fleet log replayed event-by-event through the concurrent stream engine
// must yield, for every bank, exactly the decisions the offline pipeline
// (the per-bank session replay behind cordial.Evaluate) produces — same
// banks spared, same rows isolated, same classes. Any divergence means
// the engine reordered a bank's events or the online feature path drifted
// from the offline one.
func TestOnlineOfflineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a pipeline")
	}
	pipe, err := trainedPipeline()
	if err != nil {
		t.Fatal(err)
	}
	strategy := &core.CordialStrategy{Pipeline: pipe, Geometry: hbm.DefaultGeometry}

	// A fresh month the pipeline never saw, with benign noise banks mixed
	// in (they must cross no budget and emit nothing).
	spec := trace.DefaultSpec(hbm.DefaultGeometry)
	spec.UERBanks = 30
	spec.BenignBanks = 60
	spec.Seed = 12
	fleet, err := trace.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	assertOnlineOfflineEquivalent(t, strategy, fleet)
}

// assertOnlineOfflineEquivalent replays the fleet's log both ways — per-bank
// offline sessions and the concurrent engine — and requires identical
// verdicts. Factored out so the gate also runs under non-default topology
// profiles.
func assertOnlineOfflineEquivalent(t *testing.T, strategy core.Strategy, fleet *trace.Fleet) {
	t.Helper()
	fleet.Log().Sort()

	// Offline: replay each bank's (time-ordered) events through a fresh
	// session, exactly as core.EvaluatePrediction does.
	offline := make(map[uint64]bankVerdict)
	for key, events := range fleet.Log().GroupByBank() {
		sess := strategy.NewSession(hbm.BankOf(events[0].Addr))
		v := bankVerdict{}
		seen := make(map[int]bool)
		for _, e := range events {
			d := sess.OnEvent(e)
			if d.SpareBank {
				v.bankSpared = true
			}
			for _, r := range d.IsolateRows {
				if !seen[r] {
					seen[r] = true
					v.rows = append(v.rows, r)
				}
			}
		}
		if cs, ok := sess.(core.ClassifiedSession); ok {
			v.class, v.classified = cs.Class()
		}
		sort.Ints(v.rows)
		if v.bankSpared || len(v.rows) > 0 || v.classified {
			offline[key] = v
		}
	}
	if len(offline) == 0 {
		t.Fatal("offline replay decided nothing; test fleet too small")
	}

	// Online: the same events, in log order, through the sharded engine.
	engine, err := New(Config{Strategy: strategy, Shards: 4, QueueDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	online := make(map[uint64]bankVerdict)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range engine.Actions() {
			key := a.Bank.BankKey()
			v := online[key]
			switch a.Kind.String() {
			case "bank-spare":
				v.bankSpared = true
			case "row-spare":
				v.rows = append(v.rows, a.Rows...)
			}
			v.classified, v.class = true, a.Class
			online[key] = v
		}
	}()
	if accepted, err := engine.IngestLog(fleet.Log()); err != nil {
		t.Fatal(err)
	} else if accepted != fleet.Log().Len() {
		t.Fatalf("accepted %d of %d events", accepted, fleet.Log().Len())
	}
	if err := engine.Close(); err != nil {
		t.Fatal(err)
	}
	<-done

	// Compare per bank. Engine sessions also expose class/stats; check
	// those against the offline verdicts too.
	for key, want := range offline {
		got, ok := online[key]
		if !ok {
			if want.bankSpared || len(want.rows) > 0 {
				t.Errorf("bank %x: offline decided (%v) but engine emitted nothing", key, want)
			}
			continue
		}
		sort.Ints(got.rows)
		if got.bankSpared != want.bankSpared {
			t.Errorf("bank %x: bankSpared online=%v offline=%v", key, got.bankSpared, want.bankSpared)
		}
		if fmt.Sprint(got.rows) != fmt.Sprint(want.rows) {
			t.Errorf("bank %x: rows online=%v offline=%v", key, got.rows, want.rows)
		}
		if want.classified && got.class != want.class {
			t.Errorf("bank %x: class online=%v offline=%v", key, got.class, want.class)
		}
		st, ok := engine.Session(hbm.UnpackBank(key))
		if !ok {
			t.Errorf("bank %x: no session snapshot", key)
			continue
		}
		if st.RowsIsolated != len(want.rows) {
			t.Errorf("bank %x: session rows %d, offline %d", key, st.RowsIsolated, len(want.rows))
		}
		if st.Classified != want.classified || (want.classified && st.Class != want.class) {
			t.Errorf("bank %x: session class %v/%v, offline %v/%v",
				key, st.Classified, st.Class, want.classified, want.class)
		}
	}
	for key, got := range online {
		if w, ok := offline[key]; !ok && (got.bankSpared || len(got.rows) > 0) {
			t.Errorf("bank %x: engine decided (%v) but offline replay did not", key, got)
		} else if ok {
			_ = w
		}
	}

	// Sanity: benign banks never act.
	for _, key := range fleet.BenignBankKeys {
		if v, ok := online[key]; ok && (v.bankSpared || len(v.rows) > 0) {
			t.Errorf("benign bank %x acted: %v", key, v)
		}
	}
}
