package hbm

import (
	"testing"

	"cordial/internal/xrand"
)

func TestRegisteredProfilesValid(t *testing.T) {
	names := ProfileNames()
	if len(names) < 4 {
		t.Fatalf("registry has %d profiles, want at least 4: %v", len(names), names)
	}
	for _, name := range names {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("profile %q invalid: %v", name, err)
		}
		if p.Layout.Bits() > 64 {
			t.Errorf("profile %q layout needs %d bits", name, p.Layout.Bits())
		}
	}
}

// TestHBM2ELayoutMatchesHistoricalConstants pins the hbm2e layout to the
// fixed shifts the codebase used before layouts were profile-derived, so
// packed addresses, bank keys and plan digests stay stable.
func TestHBM2ELayoutMatchesHistoricalConstants(t *testing.T) {
	want := map[field]struct{ width, shift int }{
		fieldColumn:        {8, 0},
		fieldRow:           {16, 8},
		fieldBank:          {2, 24},
		fieldBankGroup:     {2, 26},
		fieldDevice:        {0, 28},
		fieldRank:          {0, 28},
		fieldPseudoChannel: {1, 28},
		fieldChannel:       {3, 29},
		fieldSID:           {1, 32},
		fieldHBM:           {2, 33},
		fieldNPU:           {4, 35},
		fieldNode:          {12, 39},
	}
	l := HBM2E.Layout
	for f, w := range want {
		if l.width[f] != w.width || int(l.shift[f]) != w.shift {
			t.Errorf("%s: width/shift = %d/%d, want %d/%d",
				fieldNames[f], l.width[f], l.shift[f], w.width, w.shift)
		}
	}
}

func TestProfilePackUnpackRoundTrip(t *testing.T) {
	for _, name := range ProfileNames() {
		t.Run(name, func(t *testing.T) {
			p, err := ProfileByName(name)
			if err != nil {
				t.Fatal(err)
			}
			r, g, l := xrand.New(42), p.Geometry, &p.Layout
			for i := 0; i < 500; i++ {
				a := CellInBank(RandomBank(g, r), r.Intn(g.RowsPerBank), r.Intn(g.ColsPerBank))
				v, err := l.PackChecked(a)
				if err != nil {
					t.Fatalf("PackChecked(%+v): %v", a, err)
				}
				if err := l.CheckPacked(v); err != nil {
					t.Fatalf("CheckPacked(%#x): %v", v, err)
				}
				back := l.Unpack(v)
				if back != a {
					t.Fatalf("round trip mismatch: %+v vs %+v", back, a)
				}
				s, err := l.ParseAddress(a.String())
				if err != nil {
					t.Fatalf("ParseAddress(%q): %v", a.String(), err)
				}
				if s != a {
					t.Fatalf("string round trip mismatch: %+v vs %+v", s, a)
				}
			}
		})
	}
}

// TestPackedBankKeyAndRow: on a packed address, the bank key is one AND with
// BankMask and the row one shift and mask by RowField — under every profile,
// for in-range addresses and for arbitrary bit patterns, whose bank key is
// what Unpack makes of them.
func TestPackedBankKeyAndRow(t *testing.T) {
	for _, name := range ProfileNames() {
		t.Run(name, func(t *testing.T) {
			p, err := ProfileByName(name)
			if err != nil {
				t.Fatal(err)
			}
			mask, l := p.Layout.BankMask(), &p.Layout
			shift, width := l.RowField()
			r := xrand.New(7)
			g := p.Geometry
			for i := 0; i < 500; i++ {
				a := CellInBank(RandomBank(g, r), r.Intn(g.RowsPerBank), r.Intn(g.ColsPerBank))
				v := l.Pack(a)
				if v&mask != l.BankKey(a) || int(v>>shift&(1<<width-1)) != a.Row {
					t.Fatalf("%+v: key %#x row %d, want %#x and %d", a, v&mask, v>>shift&(1<<width-1), l.BankKey(a), a.Row)
				}
				if raw := r.Uint64(); raw&mask != l.BankKey(l.Unpack(raw)) {
					t.Fatalf("%#x: key %#x, Unpack's %#x", raw, raw&mask, l.BankKey(l.Unpack(raw)))
				}
			}
		})
	}
}

// TestDeriveProfile: a derived profile keeps its parent's hierarchy and gives
// each field the bits its geometry needs.
func TestDeriveProfile(t *testing.T) {
	g := DefaultGeometry
	g.RowsPerBank = 1 << 19
	p, err := HBM2E.Derive("wide", g)
	if err != nil {
		t.Fatal(err)
	}
	if _, width := p.Layout.RowField(); width != 19 || p.Layout.order != HBM2E.Layout.order || p.Layout.width[fieldNode] != 7 {
		t.Errorf("derived layout %+v", p.Layout)
	}
	if _, err := ProfileByName("wide"); err == nil {
		t.Error("Derive registered its profile")
	}
	g.Nodes = 0
	if _, err := HBM2E.Derive("bad", g); err == nil {
		t.Error("Derive accepted a geometry without nodes")
	}
}

func TestDDRTruncateHierarchy(t *testing.T) {
	a := Address{Node: 3, NPU: 1, Channel: 6, HBM: 1, Rank: 1, Device: 5, BankGroup: 3, Bank: 2, Row: 999, Column: 55}
	tests := []struct {
		level Level
		want  Address
	}{
		{LevelRow, Address{Node: 3, NPU: 1, Channel: 6, HBM: 1, Rank: 1, Device: 5, BankGroup: 3, Bank: 2, Row: 999}},
		{LevelBank, Address{Node: 3, NPU: 1, Channel: 6, HBM: 1, Rank: 1, Device: 5, BankGroup: 3, Bank: 2}},
		{LevelBankGroup, Address{Node: 3, NPU: 1, Channel: 6, HBM: 1, Rank: 1, Device: 5, BankGroup: 3}},
		{LevelDevice, Address{Node: 3, NPU: 1, Channel: 6, HBM: 1, Rank: 1, Device: 5}},
		{LevelRank, Address{Node: 3, NPU: 1, Channel: 6, HBM: 1, Rank: 1}},
		// Under DIMM profiles the module sits below the channel.
		{LevelHBM, Address{Node: 3, NPU: 1, Channel: 6, HBM: 1}},
		{LevelChannel, Address{Node: 3, NPU: 1, Channel: 6}},
		{LevelNPU, Address{Node: 3, NPU: 1}},
	}
	for _, tc := range tests {
		if got := DDR5DIMM.Layout.Truncate(a, tc.level); got != tc.want {
			t.Errorf("Truncate(%v) = %+v, want %+v", tc.level, got, tc.want)
		}
	}
}

func TestProfileLevelNames(t *testing.T) {
	if got := DDR5DIMM.LevelName(LevelNPU); got != "Socket" {
		t.Errorf("ddr5 LevelName(NPU) = %q, want Socket", got)
	}
	if got := DDR5DIMM.LevelName(LevelHBM); got != "DIMM" {
		t.Errorf("ddr5 LevelName(HBM) = %q, want DIMM", got)
	}
	if got := HBM2E.LevelName(LevelHBM); got != "HBM" {
		t.Errorf("hbm2e LevelName(HBM) = %q, want HBM", got)
	}
}

func TestProfileByName(t *testing.T) {
	if p, err := ProfileByName("hbm3"); err != nil || p != HBM3 {
		t.Fatalf("ProfileByName(hbm3) = %v, %v", p, err)
	}
	if _, err := ProfileByName("no-such-topology"); err == nil {
		t.Fatal("ProfileByName accepted an unknown name")
	}
}

func TestDeriveLayout(t *testing.T) {
	g := DefaultGeometry
	g.RowsPerBank = 4096
	g.ColsPerBank = 64
	p, err := HBM2E.Derive("small", g)
	if err != nil {
		t.Fatal(err)
	}
	l := &p.Layout
	if w := l.width[fieldRow]; w != 12 {
		t.Errorf("derived row width = %d, want 12", w)
	}
	if w := l.width[fieldRank]; w != 0 {
		t.Errorf("derived rank width = %d, want 0", w)
	}
	if err := l.Fits(g); err != nil {
		t.Errorf("derived layout does not fit its own geometry: %v", err)
	}
}

func TestGeometryFitsLayout(t *testing.T) {
	g := DDR5DIMM.Geometry
	if err := DDR5DIMM.Layout.Fits(g); err != nil {
		t.Fatal(err)
	}
	g.RanksPerModule = 4 // exceeds the 1-bit rank field
	if err := DDR5DIMM.Layout.Fits(g); err == nil {
		t.Fatal("Fits accepted ranks over layout capacity")
	}
}
