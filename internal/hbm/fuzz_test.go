package hbm

import "testing"

// FuzzParseAddress pins the bijection between canonical address strings
// and addresses: the parser never panics, any string it accepts renders
// back to exactly itself, and any accepted address survives String →
// Parse. Without the strict canonical-integer rule, inputs like "n+1..."
// or "r007..." parse but re-render differently, so string-keyed dedup and
// digests diverge.
func FuzzParseAddress(f *testing.F) {
	f.Add("n3.u7.h1.s1.c6.p1.g3.b2.r999.col55")
	f.Add("n0.u0.h0.s0.c0.p0.g0.b0.r0.col0")
	f.Add("n3.u1.h0.s0.c5.p0.g2.b3.k1.d6.r999.col55")
	f.Add("")
	f.Add("n1.u2")
	f.Add("x1.u2.h1.s0.c5.p1.g2.b3.r1.col8")
	f.Add("n-1.u2.h1.s0.c5.p1.g2.b3.r1.col8")
	f.Add("n+1.u2.h1.s0.c5.p1.g2.b3.r1.col8")
	f.Add("n01.u2.h1.s0.c5.p1.g2.b3.r007.col8")
	f.Add("n1.u2.h1.s0.c5.p1.g2.b3.k0.d0.r1.col8")
	f.Add("n99999999999999999999.u2.h1.s0.c5.p1.g2.b3.r1.col8")
	// Past the field's type: a wrapping store would read these as u3, b2, n3.
	f.Add("n1.u259.h1.s0.c5.p1.g2.b3.r1.col8")
	f.Add("n1.u2.h1.s0.c5.p1.g2.b258.r1.col8")
	f.Add("n4294967299.u2.h1.s0.c5.p1.g2.b3.r1.col8")

	f.Fuzz(func(t *testing.T, s string) {
		l := &HBM2E.Layout
		a, err := l.ParseAddress(s)
		if err != nil {
			return
		}
		// Accepted strings must be canonical: String is their exact inverse.
		if got := a.String(); got != s {
			t.Fatalf("String(Parse(%q)) = %q; parser accepted a non-canonical string", s, got)
		}
		again, err := l.ParseAddress(a.String())
		if err != nil {
			t.Fatalf("reparse of %q failed: %v", a.String(), err)
		}
		if again != a {
			t.Fatalf("round trip changed %q: %+v vs %+v", s, a, again)
		}
		// Accepted addresses always survive packing without loss.
		if _, err := l.PackChecked(a); err != nil {
			t.Fatalf("parsed address fails PackChecked: %v", err)
		}
	})
}

// FuzzPackUnpack verifies Unpack never panics, in-range addresses
// round-trip through Pack, and CheckPacked rejects exactly the packed
// values with bits outside the layout. A key CheckPacked accepts
// round-trips through the bank form too: its bank packs to its bank bits,
// and the bank with the key's row and column is the key again.
func FuzzPackUnpack(f *testing.F) {
	f.Add(uint64(0))
	f.Add(^uint64(0))
	f.Add(uint64(1) << 63)
	f.Add(HBM2E.Layout.Pack(Address{Node: 3, Row: 999, Column: 55}))

	f.Fuzz(func(t *testing.T, v uint64) {
		l := &HBM2E.Layout
		a := l.Unpack(v)
		// Re-packing an unpacked address keeps the encoded fields.
		if l.Unpack(l.Pack(a)) != a {
			t.Fatalf("pack/unpack unstable for %#x", v)
		}
		if err := l.CheckPacked(v); err != nil {
			// Rejection is only correct when v really carries stray bits.
			if l.Pack(a) == v {
				t.Fatalf("CheckPacked rejected %#x though it round-trips cleanly", v)
			}
		} else if l.Pack(a) != v {
			t.Fatalf("CheckPacked accepted %#x though bits are lost on re-pack", v)
		} else {
			b := l.UnpackBank(v)
			if l.PackBank(b) != v&l.BankMask() || l.PackBank(b) != l.BankKey(a) {
				t.Fatalf("bank of %#x packs to %#x, want %#x", v, l.PackBank(b), l.BankKey(a))
			}
			if l.Pack(CellInBank(b, a.Row, a.Column)) != v {
				t.Fatalf("bank of %#x with its row and column packs to %#x", v, l.Pack(CellInBank(b, a.Row, a.Column)))
			}
		}
	})
}
