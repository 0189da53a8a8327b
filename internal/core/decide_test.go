package core

import (
	"slices"
	"testing"

	"cordial/internal/hbm"
	"cordial/internal/xrand"
)

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
