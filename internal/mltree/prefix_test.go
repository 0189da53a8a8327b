package mltree_test

import (
	"testing"

	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/features"
	"cordial/internal/hbm"
	"cordial/internal/mltree"
	"cordial/internal/trace"
)

// TestSharedPrefixShare measures what walking a window's shared prefix once
// could save (ROADMAP item 6b(i)); it logs and asserts nothing but that there
// was something to measure. The default block forest is fitted as Pipeline.Fit
// fits it, and walked over the windows a serving session predicts on: an
// aggregation bank's sixteen blocks at each UER from the third. Per window it
// reports the node steps of sixteen row-at-a-time walks, how many of them lie
// above the row's first split on a column that varies across the window — the
// steps a walk of all sixteen rows together could take once instead of
// sixteen times — and the distinct nodes the walks touch.
func TestSharedPrefixShare(t *testing.T) {
	fleet := func(seed uint64) *trace.Fleet {
		spec := trace.DefaultSpec(hbm.DefaultGeometry)
		spec.UERBanks, spec.BenignBanks, spec.Seed = 120, 0, seed
		f, err := trace.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	cfg := core.DefaultConfig(core.RandomForest)
	ds, err := core.BuildBlockDataset(fleet(1).Faults, cfg.Block, cfg.Pattern.UERBudget)
	if err != nil {
		t.Fatal(err)
	}
	forest, err := core.NewModel(cfg.Model, cfg.Params, cfg.Seed+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := forest.Fit(ds); err != nil {
		t.Fatal(err)
	}

	const maxWindows = 640
	blocks := cfg.Block.NumBlocks()
	var total mltree.WindowWalk
	windows := 0
	for _, bf := range fleet(2).Faults {
		if !bf.Class().IsAggregation() {
			continue
		}
		st, err := features.NewBankState(cfg.Pattern, cfg.Block)
		if err != nil {
			t.Fatal(err)
		}
		uers := 0
		for _, e := range bf.Events {
			st.Observe(e)
			if e.Class != ecc.ClassUER {
				continue
			}
			if uers++; uers < cfg.Pattern.UERBudget || windows == maxWindows {
				continue
			}
			flat := make([]float64, blocks*features.BlockFeatureCount)
			st.BlockVectorsInto(flat, e.Addr.Row, e.Time)
			rows := make([][]float64, blocks)
			for b := range rows {
				rows[b] = flat[b*features.BlockFeatureCount : (b+1)*features.BlockFeatureCount]
			}
			w := mltree.WalkWindow(forest, rows)
			total.Steps += w.Steps
			total.Shared += w.Shared
			total.Distinct += w.Distinct
			total.Varying += w.Varying
			windows++
		}
	}
	if windows == 0 || total.Steps == 0 {
		t.Fatal("no window walked")
	}
	per := func(n int) float64 { return float64(n) / float64(windows) }
	saved := per(total.Shared) * float64(blocks-1) / float64(blocks)
	t.Logf("%d windows of %d rows, %.1f of %d columns varying: %.0f node steps per window, %.0f (%.1f %%) above the first split on a varying column, %.0f distinct nodes; walking the shared prefix once saves %.0f steps: %.3f×",
		windows, blocks, per(total.Varying), features.BlockFeatureCount, per(total.Steps), per(total.Shared),
		100*float64(total.Shared)/float64(total.Steps), per(total.Distinct), saved, per(total.Steps)/(per(total.Steps)-saved))
}
