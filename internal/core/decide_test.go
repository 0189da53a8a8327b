package core

import (
	"reflect"
	"slices"
	"testing"

	"cordial/internal/hbm"
	"cordial/internal/sparing"
	"cordial/internal/xrand"
)

// onEventOnly is a session with every method but OnEvent hidden, Decide among
// them, and onEventStrategy serves its strategy's sessions that way.
type onEventOnly struct{ Session }

type onEventStrategy struct{ Strategy }

func (s onEventStrategy) NewSession(bank hbm.BankAddress) Session {
	return onEventOnly{s.Strategy.NewSession(bank)}
}

// TestEvaluateDecideEqualsOnEvent: EvaluatePrediction decides into one reused
// buffer when a session can, and through OnEvent when it cannot. Both must score
// the same evaluation, block AUC included.
func TestEvaluateDecideEqualsOnEvent(t *testing.T) {
	fleet := testFleet(t, 1, 120)
	train, test, err := SplitBanks(fleet.Faults, xrand.New(5), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	p := fitPipeline(t, RandomForest, train)
	strategy := &CordialStrategy{Pipeline: p, Geometry: hbm.DefaultGeometry}

	want, err := EvaluatePrediction(onEventStrategy{strategy}, test, p.Config().Block, sparing.DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvaluatePrediction(strategy, test, p.Config().Block, sparing.DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	if want.Block.Support == 0 || want.Usage.RowSpares == 0 {
		t.Fatalf("the strategy predicted %d blocks and spared %d rows: not the coverage the test is for",
			want.Block.Support, want.Usage.RowSpares)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Decide evaluates to %+v, OnEvent to %+v", got, want)
	}
	gotAUC, gotOK := got.BlockAUC()
	wantAUC, wantOK := want.BlockAUC()
	if gotAUC != wantAUC || gotOK != wantOK {
		t.Errorf("block AUC %v/%v through Decide, %v/%v through OnEvent", gotAUC, gotOK, wantAUC, wantOK)
	}
}

// TestOnEventDecisionsAreCallersOwn: a caller may keep every decision OnEvent
// returns and read it after later events (the benchmark's reference replay
// does), while Decide's decisions are the buffer's and the next decision into
// it reuses their memory.
func TestOnEventDecisionsAreCallersOwn(t *testing.T) {
	fleet := testFleet(t, 1, 120)
	train, test, err := SplitBanks(fleet.Faults, xrand.New(5), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	strategy := &CordialStrategy{Pipeline: fitPipeline(t, RandomForest, train), Geometry: hbm.DefaultGeometry}

	type kept struct {
		d     Decision
		rows  []int
		probs []float64
	}
	var keptAll []kept
	var buf DecisionBuffer
	var aliased *BlockPrediction
	for _, bf := range test {
		sess := strategy.NewSession(bf.Bank).(*cordialSession)
		twin := strategy.NewSession(bf.Bank).(*cordialSession)
		for _, e := range bf.Events {
			d := sess.OnEvent(e)
			bd := twin.Decide(e, &buf)
			if d.Blocks == nil {
				continue
			}
			keptAll = append(keptAll, kept{d, slices.Clone(d.IsolateRows), slices.Clone(d.Blocks.Probs)})
			if aliased != nil && bd.Blocks != aliased {
				t.Fatal("Decide made a BlockPrediction of its own instead of the buffer's")
			}
			aliased = bd.Blocks
		}
	}
	if len(keptAll) < 2 {
		t.Fatalf("%d predictions: not the coverage the test is for", len(keptAll))
	}
	for i, k := range keptAll {
		if !slices.Equal(k.d.IsolateRows, k.rows) || !slices.Equal(k.d.Blocks.Probs, k.probs) {
			t.Fatalf("decision %d of %d changed after later events", i, len(keptAll))
		}
	}
}
