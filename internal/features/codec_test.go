package features

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"cordial/internal/bincodec"
	"cordial/internal/ecc"
	"cordial/internal/mcelog"
	"cordial/internal/xrand"
)

// decodeState is UnmarshalBinary into a new state.
func decodeState(data []byte) (*BankState, error) {
	st := new(BankState)
	if err := st.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return st, nil
}

// assertStateEquivalent checks that two states produce bit-identical
// vectors (the codec's contract) and matching bookkeeping.
func assertStateEquivalent(t *testing.T, want, got *BankState, anchor int, now time.Time) {
	t.Helper()
	if want.events != got.events {
		t.Fatalf("events %d vs %d", want.events, got.events)
	}
	wp, werr := want.PatternVector()
	gp, gerr := got.PatternVector()
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("pattern error mismatch: %v vs %v", werr, gerr)
	}
	if werr == nil && !vecBitsEqual(wp, gp) {
		t.Fatalf("pattern vector diverged:\noriginal %v\nrestored %v", wp, gp)
	}
	for b := 0; b < want.spec.NumBlocks(); b++ {
		wb, err1 := want.BlockVector(anchor, b, now)
		gb, err2 := got.BlockVector(anchor, b, now)
		if err1 != nil || err2 != nil {
			t.Fatalf("block %d errors: %v / %v", b, err1, err2)
		}
		if !vecBitsEqual(wb, gb) {
			t.Fatalf("block %d vector diverged:\noriginal %v\nrestored %v", b, wb, gb)
		}
	}
}

// TestBankStateCodecResume is the core durability property: marshal at an
// arbitrary point, decode, feed the identical suffix to both states — every
// vector stays bit-identical all the way.
func TestBankStateCodecResume(t *testing.T) {
	r := xrand.New(97)
	for trial := 0; trial < 15; trial++ {
		n := 5 + r.Intn(60)
		events := make([]mcelog.Event, 0, n)
		now := t0
		for i := 0; i < n; i++ {
			if r.Bool(0.6) {
				now = now.Add(time.Duration(r.Intn(7)) * 11 * time.Minute)
			}
			row := 100 + r.Intn(80)
			class := []ecc.Class{ecc.ClassCE, ecc.ClassCE, ecc.ClassUEO, ecc.ClassUER}[r.Intn(4)]
			events = append(events, mcelog.Event{Time: now, Addr: hbmAddr(row), Class: class})
		}
		cfg := PatternConfig{UERBudget: 1 + r.Intn(4)}
		spec := BlockSpec{WindowRadius: 8, BlockSize: 4}
		cut := r.Intn(n + 1)

		orig, err := NewBankState(cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		anchor := 100
		for _, e := range events[:cut] {
			orig.Observe(e)
			if e.Class == ecc.ClassUER {
				anchor = e.Addr.Row
			}
		}
		blob, err := orig.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := decodeState(blob)
		if err != nil {
			t.Fatalf("trial %d cut %d: %v", trial, cut, err)
		}
		if restored.Config() != cfg || restored.Spec() != spec {
			t.Fatalf("config/spec lost: %+v %+v", restored.Config(), restored.Spec())
		}
		assertStateEquivalent(t, orig, restored, anchor, now.Add(time.Hour))

		// The restored state must continue exactly like the original.
		for j, e := range events[cut:] {
			orig.Observe(e)
			restored.Observe(e)
			if e.Class == ecc.ClassUER {
				anchor = e.Addr.Row
			}
			assertStateEquivalent(t, orig, restored, anchor, e.Time.Add(30*time.Minute))
			_ = j
		}

		// Determinism: both states now encode to identical bytes.
		b1, _ := orig.MarshalBinary()
		b2, _ := restored.MarshalBinary()
		if !bytes.Equal(b1, b2) {
			t.Fatalf("trial %d: re-encoded states differ", trial)
		}
	}
}

func TestBankStateCodecFreshState(t *testing.T) {
	st, err := NewBankState(DefaultPatternConfig(), BlockSpec{WindowRadius: 8, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.PatternVector(); err == nil {
		t.Error("restored fresh state has a pattern vector before any UER")
	}
	assertStateEquivalent(t, st, got, 0, t0)
	if got.lastTime != unsetTime || got.cutoff != unsetTime {
		t.Error("unset times did not survive the round trip")
	}
}

// TestBankStateCodecCorruptInput: truncations and bit flips error out
// cleanly — never panic, never return an insane state.
func TestBankStateCodecCorruptInput(t *testing.T) {
	st, err := NewBankState(DefaultPatternConfig(), BlockSpec{WindowRadius: 8, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		class := ecc.ClassCE
		if i%7 == 0 {
			class = ecc.ClassUER
		}
		st.Observe(mcelog.Event{Time: t0.Add(time.Duration(i) * time.Minute), Addr: hbmAddr(200 + i%16), Class: class})
	}
	blob, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeState(blob); err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}
	// Every truncation must fail (the format has no optional tail).
	for n := 0; n < len(blob); n++ {
		if _, err := decodeState(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Trailing garbage is rejected too.
	if _, err := decodeState(append(append([]byte(nil), blob...), 0xAB)); err == nil {
		t.Error("trailing byte accepted")
	}
	// Flipping the version or magic fails.
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xff
	if _, err := decodeState(bad); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]byte(nil), blob...)
	bad[4] = 99
	if _, err := decodeState(bad); err == nil {
		t.Error("unknown version accepted")
	}
	// Random bit flips: decode may succeed (flips in float payloads are
	// legal values) but must never panic; a length-field flip must error.
	r := xrand.New(5)
	for trial := 0; trial < 200; trial++ {
		bad = append([]byte(nil), blob...)
		bad[5+r.Intn(len(bad)-5)] ^= byte(1 << r.Intn(8))
		_, _ = decodeState(bad)
	}
}

// TestBankStateCodecRejectsUnrepresentable: the layout is wider than the
// state (int64 rows and counts, unordered row lists, redundant sections), so
// an image can say things the state cannot hold. Each must be an error —
// never a truncated value, an unsorted table under a binary search, or a
// state that encodes differently from what was read.
func TestBankStateCodecRejectsUnrepresentable(t *testing.T) {
	build := func() *BankState {
		st, err := NewBankState(DefaultPatternConfig(), DefaultBlockSpec())
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range []int{31001, 31007, 31003, 31009, 31012} {
			class := ecc.ClassCE
			if i == 2 || i == 3 {
				class = ecc.ClassUER
			}
			st.Observe(mcelog.Event{Time: t0.Add(time.Duration(i) * time.Hour), Addr: hbmAddr(row), Class: class})
		}
		return st
	}
	le64 := func(vs ...int64) (out []byte) {
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, uint64(v))
		}
		return out
	}
	// patch replaces the first occurrence of one encoded value with another.
	patch := func(from, to []byte) func([]byte) []byte {
		return func(blob []byte) []byte {
			i := bytes.Index(blob, from)
			if i < 0 {
				t.Fatalf("pattern %x not in image", from)
			}
			return append(append(append([]byte(nil), blob[:i]...), to...), blob[i+len(from):]...)
		}
	}
	cases := []struct {
		name   string
		mutate func(*BankState)
		patch  func([]byte) []byte
	}{
		{name: "row beyond 32 bits", patch: patch(le64(31012), le64(1<<40))},
		{name: "negative row", patch: patch(le64(31012), le64(-1))},
		{name: "negative event count", patch: patch(le64(5), le64(-5))},
		{name: "per-row count beyond 32 bits", patch: patch(le64(31001, 1, 0), le64(31001, 1<<32, 0))},
		{name: "fractional row minimum", patch: patch(le64(int64(math.Float64bits(31001))), le64(int64(math.Float64bits(31001.5))))},
		{name: "time span that is no nanosecond count", patch: patch(le64(int64(math.Float64bits(1))), le64(int64(math.Float64bits(1))+1))},
		{name: "nanoseconds beyond a second", patch: patch(binary.LittleEndian.AppendUint32(le64(t0.Unix()), 0), binary.LittleEndian.AppendUint32(le64(t0.Unix()), 1_000_000_000))},
		{name: "unsorted CE rows", patch: patch(le64(31001, 31007), le64(31007, 31001))},
		{name: "duplicate UER rows", // the list after the empty UEO set, not the budget rows
			patch: patch(le64(0, 2, 31003, 31009), le64(0, 2, 31003, 31003))},
		{name: "unsorted per-row table", patch: patch(le64(31003, 1, 1), le64(31000, 1, 1))},
		{name: "duplicate budget rows", patch: patch(le64(2, 31003, 31009), le64(2, 31003, 31003))},
		{name: "budget done below the budget", mutate: func(s *BankState) { s.budgetDone = true }},
		{name: "first UER time without a UER row", mutate: func(s *BankState) {
			for i := range s.rows.All() {
				s.rows.All()[i].rank = 0
			}
		}},
		{name: "staged accumulators disagree with the block stage", // the staged CE row maximum comes first
			patch: patch(le64(int64(math.Float64bits(31012))), le64(int64(math.Float64bits(31013))))},
		// The CE, UEO and UER lists are derived from the per-row table, which
		// follows them: CE rows 31001, 31007, 31012, no UEO row, UER rows 31003
		// and 31009, then the table's five (row, total, uer) entries.
		{name: "CE row absent from the per-row table", patch: patch(le64(3, 31001, 31007, 31012), le64(3, 31001, 31007, 31013))},
		{name: "UEO row absent from the per-row table", patch: patch(le64(31012, 0, 2), le64(31012, 1, 31005, 2))},
		{name: "UER row absent from the per-row table", patch: patch(le64(0, 2, 31003, 31009), le64(0, 2, 31003, 31010))},
		{name: "per-row UERs on a row the UER list lacks", patch: patch(le64(31007, 1, 0), le64(31007, 2, 1))},
		{name: "UEO row of a bank without UEOs", patch: patch(le64(31012, 0, 2), le64(31012, 1, 31007, 2))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := build()
			if tc.mutate != nil {
				tc.mutate(st)
			}
			blob, err := st.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if tc.patch != nil {
				blob = tc.patch(blob)
			}
			if _, err := decodeState(blob); err == nil {
				t.Fatal("image accepted")
			}
		})
	}
	blob, err := build().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeState(blob); err != nil {
		t.Fatalf("untouched image rejected: %v", err)
	}
}

// TestSpanInvertsHours: the layout stores time extremes as float64 hours and
// the state as nanosecond counts, so decoding inverts hours(). For every
// duration — including those past 2⁵³ ns, where several share one image — the
// decoded duration must have exactly the stored image, and a value between
// two images must be refused.
func TestSpanInvertsHours(t *testing.T) {
	r := xrand.New(11)
	durations := []time.Duration{0, 1, 999, time.Hour - 1, time.Hour, time.Hour + 1, 1<<53 - 1, 1 << 53, 1<<53 + 1, 230 * 365 * 24 * time.Hour}
	for i := 0; i < 20000; i++ {
		durations = append(durations, time.Duration(r.Uint64n(8e18)>>r.Intn(50)))
	}
	for _, d := range durations {
		enc := &bincodec.Cursor{}
		span(enc, &d)
		var got time.Duration
		dec := &bincodec.Cursor{B: enc.B, Decode: true}
		span(dec, &got)
		if err := dec.Done(); err != nil {
			t.Fatalf("%d ns: %v", d, err)
		}
		if math.Float64bits(hours(got)) != math.Float64bits(hours(d)) {
			t.Fatalf("%d ns decoded as %d ns: %v vs %v hours", d, got, hours(got), hours(d))
		}
	}
	between := math.Nextafter(hours(time.Hour+1), 0) // hours() is injective this low, so no duration maps here
	bad := &bincodec.Cursor{B: binary.LittleEndian.AppendUint64(nil, math.Float64bits(between)), Decode: true}
	var got time.Duration
	if span(bad, &got); bad.Err == nil {
		t.Errorf("%v hours accepted as %d ns", between, got)
	}
}
