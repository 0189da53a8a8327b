package faultsim

import (
	"testing"

	"cordial/internal/hbm"
	"cordial/internal/xrand"
)

func TestLabelPatternGeometry(t *testing.T) {
	geo := hbm.DefaultGeometry
	half := geo.RowsPerBank / 2
	cases := []struct {
		name string
		rows []int
		cols map[int]int
		want Pattern
	}{
		{"single cluster", []int{100, 140, 90, 210}, map[int]int{3: 2, 9: 2}, PatternSingleRow},
		{"one row", []int{5000}, map[int]int{0: 1}, PatternSingleRow},
		{"two clusters", []int{1000, 1060, 5000, 5100}, map[int]int{1: 4}, PatternDoubleRow},
		{"half-total gap", []int{1000, 1050, 1000 + half, 1020 + half}, map[int]int{1: 4}, PatternHalfTotalRow},
		{"scattered", []int{100, 2000, 9000, 15000, 22000, 30000}, map[int]int{1: 6}, PatternScattered},
		{
			"whole column",
			func() []int {
				rows := make([]int, 30)
				for i := range rows {
					rows[i] = i * 1000
				}
				return rows
			}(),
			map[int]int{7: 30},
			PatternWholeColumn,
		},
		{
			// Many rows but columns spread out: spatial clustering wins.
			"many rows many columns",
			func() []int {
				rows := make([]int, 20)
				for i := range rows {
					rows[i] = i * 1500
				}
				return rows
			}(),
			map[int]int{1: 5, 2: 5, 3: 5, 4: 5},
			PatternScattered,
		},
	}
	for _, tc := range cases {
		if got := LabelPattern(geo, tc.rows, tc.cols); got != tc.want {
			t.Errorf("%s: LabelPattern = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestObservedFaultRecoversGroundTruth round-trips generated banks through
// the self-labeller: the observed event log alone must recover the
// classifier class (what training consumes) for nearly every bank, and the
// derived UER row/time/suddenness ground truth must match the generator's
// exactly.
func TestObservedFaultRecoversGroundTruth(t *testing.T) {
	geo := hbm.DefaultGeometry
	gen, err := NewGenerator(DefaultConfig(hbm.HBM2E), *xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	weights := DefaultPatternWeights()
	const banks = 200
	agree := 0
	for i := 0; i < banks; i++ {
		// Spread banks across groups within geometry bounds; Bank: i % 16
		// would overflow the 4-bank groups and alias under checked packing.
		bank := hbm.BankAddress{NPU: uint8(i % 8), HBM: uint8(i / 8 % 2), BankGroup: uint8(i / 4 % 4), Bank: uint8(i % 4)}
		bf, err := gen.GenerateSampled(bank, weights)
		if err != nil {
			t.Fatal(err)
		}
		obs, err := ObservedFault(geo, bank, bf.Events)
		if err != nil {
			t.Fatalf("bank %d: %v", i, err)
		}
		if len(obs.UERRows) != len(bf.UERRows) {
			t.Fatalf("bank %d: observed %d UER rows, generated %d",
				i, len(obs.UERRows), len(bf.UERRows))
		}
		// First-UER ORDER is ambiguous when the generator clamps several
		// rows' first UERs to the window end (tied timestamps), so compare
		// per-row: same row set, same first-UER time for each row.
		genTime := make(map[int]int, len(bf.UERRows))
		for j, r := range bf.UERRows {
			genTime[r] = j
		}
		for j, r := range obs.UERRows {
			gj, ok := genTime[r]
			if !ok {
				t.Fatalf("bank %d: observed UER row %d not in ground truth", i, r)
			}
			if !obs.UERTimes[j].Equal(bf.UERTimes[gj]) {
				t.Fatalf("bank %d row %d: observed time %v, generated %v",
					i, r, obs.UERTimes[j], bf.UERTimes[gj])
			}
			// Row-level suddenness can legitimately differ: background
			// bank activity may land in a "sudden" UER row before it
			// fails. Only the one direction must hold: a generated
			// non-sudden row (planted precursors) can never be observed
			// sudden.
			if !bf.SuddenRow[gj] && obs.SuddenRow[j] {
				t.Fatalf("bank %d row %d: generated non-sudden observed as sudden", i, r)
			}
			if j > 0 && obs.UERTimes[j].Before(obs.UERTimes[j-1]) {
				t.Fatalf("bank %d: observed UER times not nondecreasing", i)
			}
		}
		if obs.Class() == bf.Class() {
			agree++
		}
	}
	if agree < banks*95/100 {
		t.Fatalf("self-label class agreement %d/%d below 95%%", agree, banks)
	}
}
