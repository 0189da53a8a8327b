package features

import (
	"bytes"
	"math"
	"testing"
	"time"
	"unsafe"

	"cordial/internal/ecc"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/xrand"
)

// vecBitsEqual reports bit-identity of two vectors (the equivalence
// contract is exact, not within-epsilon).
func vecBitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// freshState is NewBankState, failing t on an error.
func freshState(t testing.TB, cfg PatternConfig, spec BlockSpec) *BankState {
	t.Helper()
	st, err := NewBankState(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// assertPrefixEquivalence feeds events through st, an empty state, and
// checks, after every event, that its pattern and block vectors — each block
// alone and as a row of BlockVectorsInto — are bit-identical to the batch
// reference over the same prefix under st's configuration.
func assertPrefixEquivalence(t *testing.T, st *BankState, events []mcelog.Event) {
	t.Helper()
	cfg, spec := st.cfg, st.spec
	lastUERRow := -1
	window := make([]float64, spec.NumBlocks()*BlockFeatureCount)
	for i, e := range events {
		st.Observe(e)
		if e.Class == ecc.ClassUER {
			lastUERRow = e.Addr.Row
		}
		prefix := events[:i+1]

		gotP, gotErr := st.PatternVector()
		wantP, wantErr := referencePatternVector(prefix, cfg)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("prefix %d: pattern error mismatch: incremental %v, reference %v", i+1, gotErr, wantErr)
		}
		if gotErr == nil && !vecBitsEqual(gotP, wantP) {
			t.Fatalf("prefix %d: pattern vector diverged:\nincremental %v\nreference   %v", i+1, gotP, wantP)
		}

		anchor := lastUERRow
		if anchor < 0 {
			anchor = e.Addr.Row
		}
		// Query at the current event time and strictly after it (the
		// online engine decides at the event; offline builders may not).
		for _, now := range []time.Time{e.Time, e.Time.Add(90 * time.Minute)} {
			st.BlockVectorsInto(window, anchor, now)
			for b := 0; b < spec.NumBlocks(); b++ {
				got, err1 := st.BlockVector(anchor, b, now)
				want, err2 := referenceBlockVector(prefix, anchor, spec, b, now)
				if err1 != nil || err2 != nil {
					t.Fatalf("prefix %d block %d: errors %v / %v", i+1, b, err1, err2)
				}
				if !vecBitsEqual(got, want) {
					t.Fatalf("prefix %d block %d now=%v: block vector diverged:\nincremental %v\nreference   %v",
						i+1, b, now, got, want)
				}
				if row := window[b*BlockFeatureCount : (b+1)*BlockFeatureCount]; !vecBitsEqual(row, want) {
					t.Fatalf("prefix %d block %d now=%v: BlockVectorsInto row diverged:\nwindow    %v\nreference %v",
						i+1, b, now, row, want)
				}
			}
		}
	}
}

func TestIncrementalEquivalenceTable(t *testing.T) {
	smallSpec := BlockSpec{WindowRadius: 8, BlockSize: 4}
	cases := []struct {
		name   string
		cfg    PatternConfig
		spec   BlockSpec
		events []mcelog.Event
	}{
		{
			name: "no UERs at all",
			cfg:  DefaultPatternConfig(), spec: smallSpec,
			events: []mcelog.Event{
				ev(0, 100, ecc.ClassCE), ev(1, 105, ecc.ClassCE), ev(2, 90, ecc.ClassUEO),
			},
		},
		{
			name: "UER is the very first event",
			cfg:  DefaultPatternConfig(), spec: smallSpec,
			events: []mcelog.Event{
				ev(0, 50, ecc.ClassUER), ev(1, 51, ecc.ClassCE), ev(2, 52, ecc.ClassUER),
			},
		},
		{
			name: "exactly the budget, with repeats",
			cfg:  DefaultPatternConfig(), spec: smallSpec,
			events: []mcelog.Event{
				ev(0, 10, ecc.ClassCE), ev(1, 12, ecc.ClassUER), ev(2, 12, ecc.ClassUER),
				ev(3, 14, ecc.ClassUER), ev(4, 11, ecc.ClassUEO), ev(5, 16, ecc.ClassUER),
			},
		},
		{
			name: "events after the budget are invisible to the pattern stage",
			cfg:  PatternConfig{UERBudget: 2}, spec: smallSpec,
			events: []mcelog.Event{
				ev(0, 20, ecc.ClassCE), ev(1, 22, ecc.ClassUER), ev(2, 24, ecc.ClassUER),
				ev(3, 26, ecc.ClassCE), ev(4, 28, ecc.ClassUER), ev(5, 30, ecc.ClassUEO),
			},
		},
		{
			name: "pending events become visible when the cutoff extends",
			cfg:  DefaultPatternConfig(), spec: smallSpec,
			events: []mcelog.Event{
				ev(0, 40, ecc.ClassUER), ev(1, 41, ecc.ClassCE), ev(2, 43, ecc.ClassCE),
				ev(3, 44, ecc.ClassUEO), ev(4, 45, ecc.ClassUER), ev(5, 47, ecc.ClassCE),
				ev(6, 48, ecc.ClassUER),
			},
		},
		{
			name: "ties: CE shares the first UER timestamp",
			cfg:  DefaultPatternConfig(), spec: smallSpec,
			events: []mcelog.Event{
				ev(0, 60, ecc.ClassCE), ev(1, 61, ecc.ClassCE), ev(1, 62, ecc.ClassUER),
				ev(1, 63, ecc.ClassCE), ev(2, 64, ecc.ClassUER),
			},
		},
		{
			name: "ties: events at the final cutoff timestamp stay visible",
			cfg:  PatternConfig{UERBudget: 2}, spec: smallSpec,
			events: []mcelog.Event{
				ev(0, 70, ecc.ClassUER), ev(1, 72, ecc.ClassUER), ev(1, 73, ecc.ClassCE),
				ev(1, 74, ecc.ClassUER), ev(1, 75, ecc.ClassUEO), ev(2, 76, ecc.ClassCE),
			},
		},
		{
			name: "budget one",
			cfg:  PatternConfig{UERBudget: 1}, spec: smallSpec,
			events: []mcelog.Event{
				ev(0, 80, ecc.ClassCE), ev(1, 82, ecc.ClassUER), ev(2, 84, ecc.ClassUER),
				ev(3, 86, ecc.ClassCE),
			},
		},
		{
			name: "paper geometry",
			cfg:  DefaultPatternConfig(), spec: DefaultBlockSpec(),
			events: []mcelog.Event{
				ev(0, 500, ecc.ClassCE), ev(0.5, 510, ecc.ClassCE), ev(1, 505, ecc.ClassUER),
				ev(1.5, 515, ecc.ClassUEO), ev(2, 508, ecc.ClassUER), ev(2.5, 520, ecc.ClassUER),
				ev(3, 505, ecc.ClassUER), ev(3.5, 530, ecc.ClassCE),
			},
		},
		{
			// Every timestamp field of the state is still unset when the
			// first event arrives, and here that event is at once the first
			// event, the first UER and a cutoff, tied with every class.
			name: "unset edge: first event, first UER and cutoffs at one timestamp",
			cfg:  DefaultPatternConfig(), spec: smallSpec,
			events: []mcelog.Event{
				ev(0, 100, ecc.ClassUER), ev(0, 100, ecc.ClassCE), ev(0, 100, ecc.ClassUER),
				ev(0, 97, ecc.ClassUEO), ev(0, 104, ecc.ClassUER), ev(0, 90, ecc.ClassUER),
				ev(0, 91, ecc.ClassCE), ev(0, 95, ecc.ClassUER), ev(1, 92, ecc.ClassCE),
				ev(1, 120, ecc.ClassUER),
			},
		},
		{
			name: "unset edge: budget one, the only cutoff is the first event",
			cfg:  PatternConfig{UERBudget: 1}, spec: smallSpec,
			events: []mcelog.Event{
				ev(0, 10, ecc.ClassUER), ev(0, 11, ecc.ClassUEO), ev(0, 10, ecc.ClassUER),
				ev(0, 13, ecc.ClassCE), ev(3, 14, ecc.ClassUER), ev(3, 15, ecc.ClassCE),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assertPrefixEquivalence(t, freshState(t, tc.cfg, tc.spec), tc.events)
		})
	}
}

// TestIncrementalEquivalenceRandom replays seeded random streams (row
// clusters, duplicate timestamps, all classes) through the prefix check.
func TestIncrementalEquivalenceRandom(t *testing.T) {
	r := xrand.New(31)
	for trial := 0; trial < 20; trial++ {
		events := randomStream(r)
		cfg := PatternConfig{UERBudget: 1 + r.Intn(4)}
		assertPrefixEquivalence(t, freshState(t, cfg, BlockSpec{WindowRadius: 8, BlockSize: 4}), events)
	}
}

// randomStream draws 10–79 time-ordered events of every class on clustered
// rows, with duplicate timestamps.
func randomStream(r *xrand.RNG) []mcelog.Event {
	n := 10 + r.Intn(70)
	events := make([]mcelog.Event, 0, n)
	now := t0
	row := 200 + r.Intn(100)
	for i := 0; i < n; i++ {
		if r.Bool(0.7) {
			// duplicate timestamps are common in bursts
			now = now.Add(time.Duration(r.Intn(5)) * 13 * time.Minute)
		}
		switch {
		case r.Bool(0.6):
			row = 200 + r.Intn(100)
		default:
			row += r.Intn(9) - 4
			if row < 0 {
				row = 0
			}
		}
		class := []ecc.Class{ecc.ClassCE, ecc.ClassCE, ecc.ClassUEO, ecc.ClassUER}[r.Intn(4)]
		events = append(events, mcelog.Event{Time: now, Addr: hbmAddr(row), Class: class})
	}
	return events
}

// TestResetStateIsFresh: a state that folded an unrelated bank and was Reset
// is a fresh state. It passes the prefix check over another bank's events,
// and its snapshot image — error-bit aggregates included — then equals that of
// a fresh state over the same events, byte for byte.
func TestResetStateIsFresh(t *testing.T) {
	r := xrand.New(32)
	spec := BlockSpec{WindowRadius: 8, BlockSize: 4}
	for trial := 0; trial < 20; trial++ {
		unrelated, events := randomStream(r), randomStream(r)
		for i := range unrelated {
			unrelated[i].Bits = mcelog.ErrBits(r.Intn(1 << 16))
		}
		cfg := PatternConfig{UERBudget: 1 + r.Intn(4)}
		st := freshState(t, cfg, spec)
		for _, e := range unrelated {
			st.Observe(e)
		}
		st.Reset()
		assertPrefixEquivalence(t, st, events)

		fresh := freshState(t, cfg, spec)
		for _, e := range events {
			fresh.Observe(e)
		}
		got, err := st.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: the reset state's image differs from a fresh state's (%d vs %d bytes)", trial, len(got), len(want))
		}
	}
}

// TestStateCopyKeepsRows: a BankState copied to a new place keeps its rows —
// its image and every vector — when the old place is reused for another
// bank, with its per-row table inline (16 rows) or spilled (17): the table's
// heap slice never aliases its inline array, the check TestRunsAllocs makes
// for a moved row set. The old place is reused by Reset and by Init; a
// spilled copy's old place only by Init, because Reset keeps the heap slice,
// which a copy shares as it would any slice.
func TestStateCopyKeepsRows(t *testing.T) {
	spec := BlockSpec{WindowRadius: 8, BlockSize: 4}
	bank := func(base, rows int) []mcelog.Event {
		var evs []mcelog.Event
		for i := 0; i < rows; i++ {
			class := ecc.ClassCE
			if i%5 == 4 {
				class = ecc.ClassUER
			}
			evs = append(evs, ev(float64(i), base+3*i, class))
		}
		return evs
	}
	for _, rows := range []int{16, 17} {
		for _, reuse := range []string{"Reset", "Init"} {
			if rows > 16 && reuse == "Reset" {
				continue
			}
			place, err := replayed(bank(100, rows), DefaultPatternConfig(), spec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := place.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			moved := *place
			if reuse == "Reset" {
				place.Reset()
			} else if err := place.Init(DefaultPatternConfig(), spec); err != nil {
				t.Fatal(err)
			}
			for _, e := range bank(101, rows) {
				place.Observe(e)
			}
			if got, _ := moved.MarshalBinary(); !bytes.Equal(got, want) || moved.Footprint().TrackedRows != rows {
				t.Fatalf("%d rows, old place reused by %s: the copy's image changed (%d rows tracked)", rows, reuse, moved.Footprint().TrackedRows)
			}
			ref, _ := replayed(bank(100, rows), DefaultPatternConfig(), spec)
			assertStateEquivalent(t, ref, &moved, 100+3*(rows-1), t0.Add(time.Duration(rows)*time.Hour))
		}
	}
}

// TestBankStateFootprintBounded pins the bounded-memory claim: a session
// 10× longer in events but confined to the same rows must not grow the
// tracked-row footprint at all.
func TestBankStateFootprintBounded(t *testing.T) {
	build := func(n int) StateFootprint {
		st, err := NewBankState(DefaultPatternConfig(), DefaultBlockSpec())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			class := ecc.ClassCE
			if i%20 == 19 {
				class = ecc.ClassUER
			}
			st.Observe(mcelog.Event{
				Time:  t0.Add(time.Duration(i) * time.Minute),
				Addr:  hbmAddr(300 + i%32),
				Class: class,
			})
		}
		return st.Footprint()
	}
	small, large := build(1000), build(10000)
	if small.Events != 1000 || large.Events != 10000 {
		t.Fatalf("event counts %d/%d", small.Events, large.Events)
	}
	if large.TrackedRows != small.TrackedRows {
		t.Errorf("tracked rows grew with history: %d → %d", small.TrackedRows, large.TrackedRows)
	}
	if large.ApproxBytes != small.ApproxBytes {
		t.Errorf("approx bytes grew with history: %d → %d", small.ApproxBytes, large.ApproxBytes)
	}
	if small.TrackedRows == 0 || small.ApproxBytes <= int(unsafe.Sizeof(BankState{})) {
		t.Errorf("implausibly small footprint: %+v", small)
	}
}

// TestBankStateEmpty pins the documented fresh-state semantics: no pattern
// vector before the first UER, Missing sentinels in block vectors.
func TestBankStateEmpty(t *testing.T) {
	st, err := NewBankState(DefaultPatternConfig(), DefaultBlockSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.PatternVector(); err == nil {
		t.Error("PatternVector on fresh state succeeded; want error until first UER")
	}
	vec, err := st.BlockVector(100, 0, t0)
	if err != nil {
		t.Fatal(err)
	}
	names := BlockFeatureNames()
	for i, v := range vec {
		switch names[i] {
		case "ce_count", "ueo_count", "uer_count", "all_count",
			"block_prior_error_count", "block_prior_uer_count", "uer_rows_observed":
			if v != 0 {
				t.Errorf("%s = %g on fresh state, want 0", names[i], v)
			}
		case "block_offset_rows", "block_abs_offset_rows", "anchor_row":
			// geometry, defined without events
		default:
			if v != Missing {
				t.Errorf("%s = %g on fresh state, want Missing", names[i], v)
			}
		}
	}
	if _, err := st.BlockVector(100, -1, t0); err == nil {
		t.Error("negative block index accepted")
	}
	if _, err := st.BlockVector(100, DefaultBlockSpec().NumBlocks(), t0); err == nil {
		t.Error("out-of-range block index accepted")
	}
}

// TestNewBankStateDefaultsBudget mirrors PatternVector's defaulting of a
// non-positive budget to the paper's 3.
func TestNewBankStateDefaultsBudget(t *testing.T) {
	st, err := NewBankState(PatternConfig{}, DefaultBlockSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.cfg.UERBudget != 3 {
		t.Errorf("defaulted budget %d, want 3", st.cfg.UERBudget)
	}
	if _, err := NewBankState(DefaultPatternConfig(), BlockSpec{WindowRadius: 5, BlockSize: 3}); err == nil {
		t.Error("invalid spec accepted")
	}
}

// hbmAddr builds a row-only address (bank fields zero), matching the ev
// helper in features_test.go.
func hbmAddr(row int) hbm.Address {
	return hbm.Address{Row: row}
}
