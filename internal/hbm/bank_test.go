package hbm

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"unsafe"

	"cordial/internal/xrand"
)

// eachProfile runs f under every registered profile.
func eachProfile(t *testing.T, f func(t *testing.T, p *Profile)) {
	for _, name := range ProfileNames() {
		t.Run(name, func(t *testing.T) {
			p, err := ProfileByName(name)
			if err != nil {
				t.Fatal(err)
			}
			f(t, p)
		})
	}
}

// randomCell draws a valid cell address under g.
func randomCell(g Geometry, r *xrand.RNG) Address {
	return CellInBank(RandomBank(g, r), r.Intn(g.RowsPerBank), r.Intn(g.ColsPerBank))
}

// TestBankAddressSize pins the bank at 16 B: a 32-bit node, nine 8-bit
// fields and padding. stream.Action carries one per verdict.
func TestBankAddressSize(t *testing.T) {
	if got := unsafe.Sizeof(BankAddress{}); got > 16 {
		t.Errorf("BankAddress is %d B, want at most 16", got)
	}
}

// TestAddressSize pins the cell at 32 B: the bank's 16 B, then an int row and
// an int column. Every mcelog.Event carries one.
func TestAddressSize(t *testing.T) {
	if got := unsafe.Sizeof(Address{}); got > 32 {
		t.Errorf("Address is %d B, want at most 32", got)
	}
}

// TestBankAddressRoundTrip: under every profile, the bank of a valid address
// keys, unpacks, re-expands and JSON-encodes as the row-0, column-0 address
// the bank used to be, and decodes back to itself.
func TestBankAddressRoundTrip(t *testing.T) {
	eachProfile(t, func(t *testing.T, p *Profile) {
		r, l := xrand.New(7), &p.Layout
		for i := 0; i < 1000; i++ {
			a := randomCell(p.Geometry, r)
			b, old := BankOf(a), l.Truncate(a, LevelBank)
			if l.PackBank(b) != l.BankKey(a) || l.PackBank(b) != l.Pack(old) {
				t.Fatalf("%v: bank key %#x and pack %#x, want %#x", a, l.PackBank(b), l.Pack(old), l.BankKey(a))
			}
			if got := l.UnpackBank(l.BankKey(a)); got != b {
				t.Fatalf("UnpackBank(%#x) = %v, want %v", l.BankKey(a), got, b)
			}
			if got := l.UnpackBank(l.Pack(a)); got != b {
				t.Fatalf("UnpackBank of the cell key %#x = %v, want %v", l.Pack(a), got, b)
			}
			if got := CellInBank(b, a.Row, a.Column); got != a {
				t.Fatalf("CellInBank(BankOf(%v)) = %v", a, got)
			}
			data, err := json.Marshal(b)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := json.Marshal(old)
			if !bytes.Equal(data, want) {
				t.Fatalf("JSON %s, want the Address encoding %s", data, want)
			}
			var back BankAddress
			if err := json.Unmarshal(data, &back); err != nil || back != b {
				t.Fatalf("JSON %s decodes to %v (%v), want %v", data, back, err, b)
			}
		}
	})
}

// TestBankAddressString: a bank renders as its row-0, column-0 cell, which is
// what /v1/actions, /v1/banks and the dead-letter log carry. The table was
// computed by Address.Truncate(LevelBank).String() before BankAddress was a
// type of its own; its cells are RandomBank draws at seed 38, so the table
// also pins RandomBank's draw order.
func TestBankAddressString(t *testing.T) {
	table := map[string][][2]string{
		"ddr4-dimm": {
			{"n2.u1.h0.s0.c0.p0.g0.b0.k0.d3.r1934.col223", "n2.u1.h0.s0.c0.p0.g0.b0.k0.d3.r0.col0"},
			{"n80.u1.h1.s0.c2.p0.g0.b0.k0.d6.r54966.col426", "n80.u1.h1.s0.c2.p0.g0.b0.k0.d6.r0.col0"},
			{"n57.u1.h1.s0.c3.p0.g2.b2.k1.d5.r43537.col231", "n57.u1.h1.s0.c3.p0.g2.b2.k1.d5.r0.col0"},
		},
		"ddr5-dimm": {
			{"n2.u1.h0.s0.c1.p0.g1.b0.k0.d3.r1934.col223", "n2.u1.h0.s0.c1.p0.g1.b0.k0.d3.r0.col0"},
			{"n80.u1.h1.s0.c4.p0.g1.b0.k0.d6.r54966.col426", "n80.u1.h1.s0.c4.p0.g1.b0.k0.d6.r0.col0"},
			{"n57.u1.h1.s0.c6.p0.g5.b2.k1.d5.r43537.col231", "n57.u1.h1.s0.c6.p0.g5.b2.k1.d5.r0.col0"},
		},
		"hbm2e": {
			{"n2.u7.h0.s0.c0.p0.g0.b0.r967.col27", "n2.u7.h0.s0.c0.p0.g0.b0.r0.col0"},
			{"n80.u6.h1.s1.c3.p1.g0.b0.r27483.col53", "n80.u6.h1.s1.c3.p1.g0.b0.r0.col0"},
			{"n57.u7.h1.s1.c4.p1.g2.b2.r21768.col28", "n57.u7.h1.s1.c4.p1.g2.b2.r0.col0"},
		},
		"hbm3": {
			{"n2.u7.h0.s0.c1.p0.g1.b0.r1934.col27", "n2.u7.h0.s0.c1.p0.g1.b0.r0.col0"},
			{"n80.u6.h1.s1.c7.p1.g1.b0.r54966.col53", "n80.u6.h1.s1.c7.p1.g1.b0.r0.col0"},
			{"n57.u7.h1.s1.c8.p1.g5.b2.r43537.col28", "n57.u7.h1.s1.c8.p1.g5.b2.r0.col0"},
		},
	}
	eachProfile(t, func(t *testing.T, p *Profile) {
		rows, ok := table[p.Name]
		if !ok {
			t.Fatalf("no parent-computed rows for profile %q", p.Name)
		}
		r := xrand.New(38)
		for _, row := range rows {
			a := randomCell(p.Geometry, r)
			if a.String() != row[0] {
				t.Fatalf("RandomBank drew %v, want %s", a, row[0])
			}
			b := BankOf(a)
			if b.String() != row[1] || b.String() != p.Layout.Truncate(a, LevelBank).String() {
				t.Fatalf("BankOf(%v).String() = %s, want %s", a, b, row[1])
			}
			if parsed, err := p.Layout.ParseAddress(b.String()); err != nil || BankOf(parsed) != b {
				t.Fatalf("ParseAddress(%s) = %v, %v", b, parsed, err)
			}
		}
	})
}

// TestBankAddressJSONRejects: a bank decodes only from a row-0, column-0
// address whose fields the type holds.
func TestBankAddressJSONRejects(t *testing.T) {
	good := `{"Node":70000,"NPU":255,"HBM":0,"SID":0,"Channel":0,"PseudoChannel":0,"Rank":0,"Device":0,"BankGroup":0,"Bank":3,"Row":0,"Column":0}`
	var b BankAddress
	if err := json.Unmarshal([]byte(good), &b); err != nil || b != (BankAddress{Node: 70000, NPU: 255, Bank: 3}) {
		t.Fatalf("%s: %v, %v", good, b, err)
	}
	for _, bad := range []string{
		strings.Replace(good, `"Row":0`, `"Row":5`, 1),
		strings.Replace(good, `"Column":0`, `"Column":1`, 1),
		strings.Replace(good, `"NPU":255`, `"NPU":256`, 1),
		strings.Replace(good, `"Bank":3`, `"Bank":-1`, 1),
		strings.Replace(good, `"Node":70000`, `"Node":4294967296`, 1),
		`[1,2]`,
	} {
		if err := json.Unmarshal([]byte(bad), &b); err == nil {
			t.Errorf("%s decoded to %v", bad, b)
		}
	}
}

// TestAddressBankKeyMatchesTruncate: Layout.BankKey masks the packed address
// and equals the truncating definition it replaced, under every profile, for
// valid addresses and for anything Unpack yields; the bench-only
// Address.BankKey is hbm2e's.
func TestAddressBankKeyMatchesTruncate(t *testing.T) {
	eachProfile(t, func(t *testing.T, p *Profile) {
		r, l := xrand.New(11), &p.Layout
		for i := 0; i < 1000; i++ {
			for _, a := range []Address{randomCell(p.Geometry, r), l.Unpack(r.Uint64())} {
				if p == HBM2E && a.BankKey() != l.BankKey(a) {
					t.Fatalf("%v: Address.BankKey %#x, hbm2e's %#x", a, a.BankKey(), l.BankKey(a))
				}
				if got, want := l.BankKey(a), l.Pack(l.Truncate(a, LevelBank)); got != want {
					t.Fatalf("%v: BankKey %#x, Truncate(LevelBank).Pack() %#x", a, got, want)
				}
			}
		}
	})
}

// TestNewLayoutRefusesOverWideField: every bank-level field must fit
// BankAddress (the node 32 bits, the others 8), and the bank, row and column
// must be the finest fields, so a bank is exactly its ten coarser fields.
func TestNewLayoutRefusesOverWideField(t *testing.T) {
	widths := func(f field, w int) map[field]int {
		m := map[field]int{fieldNode: 12, fieldRow: 16, fieldColumn: 8}
		m[f] = w
		return m
	}
	for f := fieldNPU; f <= fieldBank; f++ {
		if _, err := NewLayout(hbmOrder, widths(f, 8)); err != nil {
			t.Errorf("%s at 8 bits refused: %v", fieldNames[f], err)
		}
		if _, err := NewLayout(hbmOrder, widths(f, 9)); err == nil {
			t.Errorf("%s at 9 bits accepted; BankAddress holds 8", fieldNames[f])
		}
	}
	if _, err := NewLayout(hbmOrder, widths(fieldNode, 33)); err == nil {
		t.Error("node at 33 bits accepted; BankAddress holds 32")
	}
	g := DefaultGeometry
	g.NPUsPerNode = 300
	if _, err := HBM2E.Derive("wide-npu", g); err == nil {
		t.Error("a profile with 300 NPUs per node derived; BankAddress holds 256")
	}
	order := append([]field(nil), hbmOrder...)
	order[7], order[9] = order[9], order[7] // device below the bank
	if _, err := NewLayout(order, widths(fieldNode, 12)); err == nil {
		t.Error("a layout with a field between the bank and the row accepted")
	}
}
