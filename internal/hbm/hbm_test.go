package hbm

import (
	"strings"
	"testing"
	"testing/quick"

	"cordial/internal/xrand"
)

func TestDefaultGeometryValid(t *testing.T) {
	if err := HBM2E.Layout.Fits(DefaultGeometry); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryValidateRejects(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Geometry)
	}{
		{"zero nodes", func(g *Geometry) { g.Nodes = 0 }},
		{"negative rows", func(g *Geometry) { g.RowsPerBank = -1 }},
		{"rows over encoding", func(g *Geometry) { g.RowsPerBank = 1 << 20 }},
		{"cols over encoding", func(g *Geometry) { g.ColsPerBank = 1 << 10 }},
		{"nodes over encoding", func(g *Geometry) { g.Nodes = 1 << 13 }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			g := DefaultGeometry
			tc.mutate(&g)
			if err := HBM2E.Layout.Fits(g); err == nil {
				t.Fatal("Fits accepted invalid geometry")
			}
		})
	}
}

func TestGeometryCounts(t *testing.T) {
	g := DefaultGeometry
	if got, want := g.TotalBanks(), 128*8*2*(2*8*2*4*4); got != want {
		t.Errorf("TotalBanks = %d, want %d", got, want)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	l := &HBM2E.Layout
	f := func(raw [numFields]uint32) bool {
		var a Address
		for fi := field(0); fi < numFields; fi++ {
			a.set(fi, int(raw[fi])%l.capacity(fi))
		}
		return l.Unpack(l.Pack(a)) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPackCheckedRejectsOverflow(t *testing.T) {
	l := &HBM2E.Layout
	// The historical bug: Row = 1<<rowBits packed to a value whose row
	// silently read back as 0, corrupting bank keys. PackChecked must
	// reject every such field, for every field.
	for fi := field(0); fi < numFields; fi++ {
		var a Address
		a.set(fi, l.capacity(fi))
		if _, err := l.PackChecked(a); err == nil {
			t.Errorf("PackChecked accepted %s = %d (capacity %d)", fieldNames[fi], l.capacity(fi), l.capacity(fi))
		}
		a.set(fi, -1)
		if _, err := l.PackChecked(a); err == nil {
			t.Errorf("PackChecked accepted negative %s", fieldNames[fi])
		}
	}
	good := Address{Node: 3, NPU: 7, Row: 999, Column: 55}
	v, err := l.PackChecked(good)
	if err != nil {
		t.Fatalf("PackChecked rejected valid address: %v", err)
	}
	if v != l.Pack(good) {
		t.Fatalf("PackChecked = %#x, Pack = %#x", v, l.Pack(good))
	}
}

// TestUnpackCheckedRejectsStrayBits: the checked decode — CheckPacked, then
// Unpack — refuses a packed address with bits outside the layout, which
// Unpack alone would drop.
func TestUnpackCheckedRejectsStrayBits(t *testing.T) {
	a, l := Address{Node: 3, NPU: 7, Row: 999, Column: 55}, &HBM2E.Layout
	if err := l.CheckPacked(l.Pack(a)); err != nil {
		t.Fatalf("CheckPacked rejected clean packed address: %v", err)
	}
	stray := l.Pack(a) | 1<<63
	if err := l.CheckPacked(stray); err == nil {
		t.Fatal("CheckPacked accepted a packed address with stray high bits")
	}
}

func TestPackDistinct(t *testing.T) {
	a := Address{Node: 1, Row: 5}
	b := Address{Node: 1, Row: 6}
	if HBM2E.Layout.Pack(a) == HBM2E.Layout.Pack(b) {
		t.Fatal("distinct addresses packed to the same value")
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	g := DefaultGeometry
	r := xrand.New(99)
	for i := 0; i < 500; i++ {
		a := CellInBank(RandomBank(g, r), r.Intn(g.RowsPerBank), r.Intn(g.ColsPerBank))
		got, err := HBM2E.Layout.ParseAddress(a.String())
		if err != nil {
			t.Fatalf("ParseAddress(%q): %v", a.String(), err)
		}
		if got != a {
			t.Fatalf("round trip mismatch: %v vs %v", got, a)
		}
	}
}

func TestParseAddressErrors(t *testing.T) {
	for _, s := range []string{
		"",
		"n1.u2",
		"x1.u2.h1.s0.c5.p1.g2.b3.r12345.col87",
		"n1.u2.h1.s0.c5.p1.g2.b3.rxyz.col87",
		"n-1.u2.h1.s0.c5.p1.g2.b3.r1.col87",
		"n1.u2.h1.s0.c5.p1.g2.b3.r1.col87.extra",
		// Non-canonical integers: lenient parsing would accept these but
		// render them back differently, breaking string-keyed dedup.
		"n+1.u2.h1.s0.c5.p1.g2.b3.r1.col87",
		"n01.u2.h1.s0.c5.p1.g2.b3.r1.col87",
		"n1.u2.h1.s0.c5.p1.g2.b3.r007.col87",
		"n1.u2.h1.s0.c5.p1.g2.b3.r1.col087",
		"n1.u2.h1.s0.c5.p1.g2.b3.r1.col 87",
		// Out of encoding range: would silently truncate under Pack.
		"n1.u2.h1.s0.c5.p1.g2.b3.r70000.col87",
		// Rank/device spelled out as zero: canonical form omits them.
		"n1.u2.h1.s0.c5.p1.g2.b3.k0.d0.r1.col87",
	} {
		if _, err := HBM2E.Layout.ParseAddress(s); err == nil {
			t.Errorf("ParseAddress(%q) succeeded, want error", s)
		}
	}
}

// TestParseAddressNarrowFields: an index past its field's encoding range is
// refused with PackChecked's error even where the field's type would wrap it
// onto a real bank — u259 onto u3 and b258 onto b2 in 8 bits, n4294967299
// onto n3 in 32.
func TestParseAddressNarrowFields(t *testing.T) {
	for _, s := range []string{
		"n1.u259.h1.s0.c5.p1.g2.b3.r1.col87",
		"n1.u2.h1.s0.c5.p1.g2.b258.r1.col87",
		"n4294967299.u2.h1.s0.c5.p1.g2.b3.r1.col87",
	} {
		a, err := HBM2E.Layout.ParseAddress(s)
		if err == nil || !strings.Contains(err.Error(), "outside encoding range") {
			t.Errorf("ParseAddress(%q) = %v, %v; want an outside-encoding-range error", s, a, err)
		}
	}
}

func TestParseAddressRankDevice(t *testing.T) {
	a := Address{Node: 3, NPU: 1, Channel: 5, HBM: 1, Rank: 1, Device: 6, BankGroup: 2, Bank: 3, Row: 12345, Column: 87}
	s := a.String()
	got, err := DDR5DIMM.Layout.ParseAddress(s)
	if err != nil {
		t.Fatalf("ParseAddress(%q): %v", s, err)
	}
	if got != a {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, a)
	}
	if !strings.Contains(s, ".k1.d6.") {
		t.Fatalf("String() = %q, want rank/device segments", s)
	}
}

func TestValidateAddress(t *testing.T) {
	g := DefaultGeometry
	good := Address{Node: uint32(g.Nodes - 1), Row: g.RowsPerBank - 1, Column: g.ColsPerBank - 1}
	if err := good.Validate(g); err != nil {
		t.Fatalf("valid address rejected: %v", err)
	}
	bad := good
	bad.Row = g.RowsPerBank
	if err := bad.Validate(g); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	neg := good
	neg.Column = -1
	if err := neg.Validate(g); err == nil {
		t.Fatal("negative column accepted")
	}
}

func TestTruncateHierarchy(t *testing.T) {
	a := Address{Node: 3, NPU: 7, HBM: 1, SID: 1, Channel: 6, PseudoChannel: 1, BankGroup: 3, Bank: 2, Row: 999, Column: 55}
	tests := []struct {
		level Level
		want  Address
	}{
		{LevelRow, Address{Node: 3, NPU: 7, HBM: 1, SID: 1, Channel: 6, PseudoChannel: 1, BankGroup: 3, Bank: 2, Row: 999}},
		{LevelBank, Address{Node: 3, NPU: 7, HBM: 1, SID: 1, Channel: 6, PseudoChannel: 1, BankGroup: 3, Bank: 2}},
		{LevelBankGroup, Address{Node: 3, NPU: 7, HBM: 1, SID: 1, Channel: 6, PseudoChannel: 1, BankGroup: 3}},
		{LevelPseudoChannel, Address{Node: 3, NPU: 7, HBM: 1, SID: 1, Channel: 6, PseudoChannel: 1}},
		{LevelChannel, Address{Node: 3, NPU: 7, HBM: 1, SID: 1, Channel: 6}},
		{LevelSID, Address{Node: 3, NPU: 7, HBM: 1, SID: 1}},
		{LevelHBM, Address{Node: 3, NPU: 7, HBM: 1}},
		{LevelNPU, Address{Node: 3, NPU: 7}},
	}
	for _, tc := range tests {
		if got := HBM2E.Layout.Truncate(a, tc.level); got != tc.want {
			t.Errorf("Truncate(%v) = %+v, want %+v", tc.level, got, tc.want)
		}
	}
}

func TestEntityKeyGrouping(t *testing.T) {
	l := &HBM2E.Layout
	a := Address{Node: 1, NPU: 2, HBM: 1, SID: 0, Channel: 3, PseudoChannel: 1, BankGroup: 2, Bank: 1, Row: 100, Column: 4}
	b := a
	b.Row = 200
	b.Column = 9
	if l.EntityKey(a, LevelBank) != l.EntityKey(b, LevelBank) {
		t.Fatal("same-bank addresses have different bank keys")
	}
	c := a
	c.Bank = 2
	if l.EntityKey(a, LevelBank) == l.EntityKey(c, LevelBank) {
		t.Fatal("different banks share a bank key")
	}
	if l.EntityKey(a, LevelBankGroup) != l.EntityKey(c, LevelBankGroup) {
		t.Fatal("same-group addresses have different group keys")
	}
}

func TestSameBankAndRowKeys(t *testing.T) {
	a := Address{Node: 1, Row: 10, Column: 3}
	b := Address{Node: 1, Row: 10, Column: 99}
	c, l := Address{Node: 1, Row: 11}, &HBM2E.Layout
	if l.BankKey(a) != l.BankKey(b) || l.BankKey(a) != l.BankKey(c) {
		t.Fatal("same-bank addresses have different bank keys")
	}
	if l.EntityKey(a, LevelRow) != l.EntityKey(b, LevelRow) {
		t.Fatal("same-row addresses have different row keys")
	}
	if l.EntityKey(a, LevelRow) == l.EntityKey(c, LevelRow) {
		t.Fatal("different rows share a row key")
	}
}

func TestRandomBankWithinBounds(t *testing.T) {
	g := DefaultGeometry
	r := xrand.New(7)
	for i := 0; i < 1000; i++ {
		b := RandomBank(g, r)
		if err := CellInBank(b, 0, 0).Validate(g); err != nil {
			t.Fatalf("RandomBank produced invalid address: %v", err)
		}
	}
}

func TestClampRow(t *testing.T) {
	g := DefaultGeometry
	for _, tc := range []struct{ in, want int }{
		{-5, 0}, {0, 0}, {100, 100},
		{g.RowsPerBank - 1, g.RowsPerBank - 1},
		{g.RowsPerBank, g.RowsPerBank - 1},
		{g.RowsPerBank + 99, g.RowsPerBank - 1},
	} {
		if got := g.ClampRow(tc.in); got != tc.want {
			t.Errorf("ClampRow(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestLevelString(t *testing.T) {
	if LevelPseudoChannel.String() != "PS-CH" {
		t.Errorf("LevelPseudoChannel.String() = %q", LevelPseudoChannel.String())
	}
	if Level(99).String() != "Level(99)" {
		t.Errorf("unknown level String() = %q", Level(99).String())
	}
}

func TestTableLevelsOrder(t *testing.T) {
	want := []string{"NPU", "HBM", "SID", "PS-CH", "BG", "Bank", "Row"}
	levels := HBM2E.TableLevels
	if len(levels) != len(want) {
		t.Fatalf("TableLevels has %d entries, want %d", len(levels), len(want))
	}
	for i, l := range levels {
		if l.String() != want[i] {
			t.Errorf("TableLevels[%d] = %s, want %s", i, l, want[i])
		}
	}
}

func TestCellInBank(t *testing.T) {
	bank := BankAddress{Node: 2, Bank: 3}
	a := CellInBank(bank, 77, 12)
	if a.Row != 77 || a.Column != 12 || a.Node != 2 || a.Bank != 3 {
		t.Fatalf("CellInBank = %+v", a)
	}
	if BankOf(a) != bank {
		t.Fatalf("BankOf(CellInBank(...)) = %+v, want %+v", BankOf(a), bank)
	}
}

func BenchmarkPack(b *testing.B) {
	a := Address{Node: 3, NPU: 7, HBM: 1, SID: 1, Channel: 6, PseudoChannel: 1, BankGroup: 3, Bank: 2, Row: 999, Column: 55}
	for i := 0; i < b.N; i++ {
		_ = HBM2E.Layout.Pack(a)
	}
}

func BenchmarkParseAddress(b *testing.B) {
	s := Address{Node: 3, NPU: 7, Row: 999, Column: 55}.String()
	for i := 0; i < b.N; i++ {
		if _, err := HBM2E.Layout.ParseAddress(s); err != nil {
			b.Fatal(err)
		}
	}
}
