package core

import (
	"testing"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/sparing"
	"cordial/internal/xrand"
)

// TestPredictBlocksStateAllocs pins the allocation count of the §IV-D hot
// path with the default 80-tree forest. A warmed PredictBlocksState allocates
// only the probabilities it returns, and a warmed ClassifyPatternState (the
// §IV-B decision a bank makes once) nothing. A predicting OnEvent allocates
// only what its caller keeps: a buffer of the decision's own (which holds the
// BlockPrediction), the probabilities and the rows. A predicting Decide into a
// reused buffer allocates nothing of its own. Both are allowed one more for the
// amortised growth of the feature state's per-row table. A window prediction
// used to make ≈ 1 340 allocations, one leaf copy per tree and block; the
// pooled scratch and the arena kernel took it to its result, and deciding into
// a reused buffer takes a predicting step from OnEvent's three to the table's
// growth.
func TestPredictBlocksStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	fleet := testFleet(t, 1, 120)
	train, test, err := SplitBanks(fleet.Faults, xrand.New(3), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(RandomForest)
	cfg.Params = ModelParams{Trees: 80}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Fit(train); err != nil {
		t.Fatal(err)
	}
	strategy := &CordialStrategy{Pipeline: p, Geometry: hbm.DefaultGeometry}

	// Replay test banks until one is classified as an aggregation pattern
	// and is therefore predicting at every new UER row.
	var sess *cordialSession
	var last mcelog.Event
	failed := make([]bool, hbm.DefaultGeometry.RowsPerBank) // rows the chosen bank has seen
	for _, bf := range test {
		s := strategy.NewSession(hbm.BankAddress{}).(*cordialSession)
		clear(failed)
		for _, e := range bf.Events {
			s.OnEvent(e)
			failed[e.Addr.Row] = true
		}
		if class, ok := s.Class(); ok && class.IsAggregation() {
			sess, last = s, bf.Events[len(bf.Events)-1]
			break
		}
	}
	if sess == nil {
		t.Fatal("no test bank was classified as an aggregation pattern")
	}

	now := last.Time.Add(time.Hour)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.PredictBlocksState(&sess.state, last.Addr.Row, now); err != nil {
			t.Error(err)
		}
	}); allocs > 1 {
		t.Errorf("warmed PredictBlocksState allocates %v times, want at most 1", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.ClassifyPatternState(&sess.state); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Errorf("warmed ClassifyPatternState allocates %v times, want 0", allocs)
	}

	// Every run is a UER at a row the bank has not failed at yet, so every
	// run predicts.
	row, step := last.Addr.Row, 0
	nextUER := func() mcelog.Event {
		step++
		for failed[row] {
			row = (row + 3) % len(failed)
		}
		failed[row] = true
		e := last
		e.Class, e.Addr.Row, e.Time = ecc.ClassUER, row, now.Add(time.Duration(step)*time.Minute)
		return e
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if d := sess.OnEvent(nextUER()); d.Blocks == nil {
			t.Error("OnEvent at a new UER row made no block prediction")
		}
	}); allocs > 4 {
		t.Errorf("predicting OnEvent allocates %v times, want at most 4", allocs)
	}

	// AllocsPerRun's warm-up run sizes the buffer.
	var buf DecisionBuffer
	if allocs := testing.AllocsPerRun(100, func() {
		if d := sess.Decide(nextUER(), &buf); d.Blocks == nil {
			t.Error("Decide at a new UER row made no block prediction")
		}
	}); allocs > 1 {
		t.Errorf("predicting Decide into a reused buffer allocates %v times, want at most 1", allocs)
	}
}

// TestEvaluateAllocsPerBank is the offline evaluation's garbage gate:
// EvaluatePattern and EvaluatePrediction over a held-out set fold every bank
// through one pattern feature state, carve the pattern vectors from one
// backing array and spare rows into one row table, so what is left per bank is
// mostly the evaluation session, its feature state and first 16 rows inside
// it: 3.53–3.56 mallocs per bank measured at 1–8 procs, gated at 3.6. The
// session and a row table of its own made 4.56 (9.25 when the gate was set at
// 12), and a fresh state and vector per bank, a returned slice per SpareRows
// and a row map per bank 36.6.
func TestEvaluateAllocsPerBank(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	fleet := testFleet(t, 1, 120)
	train, test, err := SplitBanks(fleet.Faults, xrand.New(3), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	p := fitPipeline(t, RandomForest, train)
	strategy := &CordialStrategy{Pipeline: p, Geometry: hbm.DefaultGeometry}
	cfg := p.Config()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := EvaluatePattern(p, test); err != nil {
			t.Fatal(err)
		}
		if _, err := EvaluatePrediction(strategy, test, cfg.Block, sparing.DefaultBudget()); err != nil {
			t.Fatal(err)
		}
	})
	perBank := allocs / float64(len(test))
	t.Logf("%d test banks: %.0f mallocs, %.2f per bank", len(test), allocs, perBank)
	if perBank > 3.6 {
		t.Errorf("evaluation makes %.2f mallocs per bank, want ≤ 3.6", perBank)
	}
}
