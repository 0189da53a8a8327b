package faultsim

import (
	"testing"

	"cordial/internal/ecc"
	"cordial/internal/hbm"
	"cordial/internal/xrand"
)

func TestPhysicalConfigValidate(t *testing.T) {
	if err := DefaultPhysicalConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (PhysicalConfig{ScrubInterval: 0, DemandRate: 1}).Validate(); err == nil {
		t.Error("zero scrub interval accepted")
	}
	if err := (PhysicalConfig{ScrubInterval: 1, DemandRate: 0}).Validate(); err == nil {
		t.Error("zero demand rate accepted")
	}
}

func TestGeneratePhysicalBasics(t *testing.T) {
	g := newGen(t, 41)
	bank := hbm.BankAddress{Node: 2}
	for _, p := range []Pattern{PatternSingleRow, PatternScattered} {
		bf, err := g.GeneratePhysical(bank, p, DefaultPhysicalConfig())
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if len(bf.UERRows) == 0 || len(bf.Events) == 0 {
			t.Fatalf("%v: empty result", p)
		}
		// Every event is a classified loggable class at a valid address.
		for _, e := range bf.Events {
			if err := e.Validate(hbm.DefaultGeometry); err != nil {
				t.Fatalf("%v: %v", p, err)
			}
			if e.Addr.BankKey() != bank.BankKey() {
				t.Fatalf("%v: event outside bank", p)
			}
		}
		// UER ground truth matches logged UER events.
		loggedUER := make(map[int]bool)
		for _, e := range bf.Events {
			if e.Class == ecc.ClassUER {
				loggedUER[e.Addr.Row] = true
			}
		}
		for _, row := range bf.UERRows {
			if !loggedUER[row] {
				t.Fatalf("%v: ground-truth UER row %d never logged", p, row)
			}
		}
		// First-UER times are non-decreasing.
		for i := 1; i < len(bf.UERTimes); i++ {
			if bf.UERTimes[i].Before(bf.UERTimes[i-1]) {
				t.Fatalf("%v: UER times out of order", p)
			}
		}
	}
}

func TestPhysicalUERTimesMatchFirstDemandHit(t *testing.T) {
	g := newGen(t, 43)
	bf, err := g.GeneratePhysical(hbm.BankAddress{}, PatternSingleRow, DefaultPhysicalConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range bf.UERRows {
		var first *int
		for j, e := range bf.Events {
			if e.Class == ecc.ClassUER && e.Addr.Row == row {
				first = &j
				break
			}
		}
		if first == nil {
			t.Fatalf("row %d has no UER event", row)
		}
		if !bf.Events[*first].Time.Equal(bf.UERTimes[i]) {
			t.Fatalf("row %d first UER at %v, truth says %v", row, bf.Events[*first].Time, bf.UERTimes[i])
		}
	}
}

func TestPhysicalProducesUEOsFromScrubs(t *testing.T) {
	// With patrol scrubbing enabled, some uncorrectable defects are found
	// by the scrubber before a demand read — those must log as UEO.
	g := newGen(t, 45)
	ueos := 0
	for trial := 0; trial < 10; trial++ {
		bf, err := g.GeneratePhysical(hbm.BankAddress{}, PatternScattered, DefaultPhysicalConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range bf.Events {
			if e.Class == ecc.ClassUEO {
				ueos++
			}
		}
	}
	if ueos == 0 {
		t.Fatal("patrol scrubbing never surfaced a UEO")
	}
}

func TestPhysicalMatchesFastPathSpatially(t *testing.T) {
	// The physical path must produce the same spatial structure as the
	// calibrated fast path: single-row clusters stay tight.
	g := newGen(t, 47)
	for trial := 0; trial < 10; trial++ {
		bf, err := g.GeneratePhysical(hbm.BankAddress{}, PatternSingleRow, DefaultPhysicalConfig())
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := bf.UERRows[0], bf.UERRows[0]
		for _, r := range bf.UERRows {
			if r < lo {
				lo = r
			}
			if r > hi {
				hi = r
			}
		}
		if hi-lo > 1024 {
			t.Fatalf("physical single-row cluster spans %d rows", hi-lo)
		}
	}
}

func TestPhysicalFeaturesCompatibleWithPipelineInputs(t *testing.T) {
	// Logs from the physical path feed the same feature extractors.
	g := newGen(t, 49)
	bf, err := g.GeneratePhysical(hbm.BankAddress{}, PatternSingleRow, DefaultPhysicalConfig())
	if err != nil {
		t.Fatal(err)
	}
	if bf.Class() != ClassSingleRow {
		t.Fatalf("class = %v", bf.Class())
	}
	if bf.Cause == 0 {
		t.Fatal("no cause assigned")
	}
}

func TestPhysicalDeterministicPerSeed(t *testing.T) {
	mk := func() *BankFault {
		g, err := NewGenerator(DefaultConfig(hbm.DefaultGeometry), *xrand.New(51))
		if err != nil {
			t.Fatal(err)
		}
		bf, err := g.GeneratePhysical(hbm.BankAddress{}, PatternSingleRow, DefaultPhysicalConfig())
		if err != nil {
			t.Fatal(err)
		}
		return bf
	}
	a, b := mk(), mk()
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func BenchmarkGeneratePhysical(b *testing.B) {
	g, err := NewGenerator(DefaultConfig(hbm.DefaultGeometry), *xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	pcfg := DefaultPhysicalConfig()
	for i := 0; i < b.N; i++ {
		if _, err := g.GeneratePhysical(hbm.BankAddress{}, PatternSingleRow, pcfg); err != nil {
			b.Fatal(err)
		}
	}
}
