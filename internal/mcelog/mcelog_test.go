package mcelog

import (
	"bytes"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"

	"cordial/internal/ecc"
	"cordial/internal/hbm"
	"cordial/internal/xrand"
)

var epoch = time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)

func ev(sec int, row int, class ecc.Class) Event {
	return Event{
		Time:  epoch.Add(time.Duration(sec) * time.Second),
		Addr:  hbm.Address{Row: row},
		Class: class,
	}
}

func randomEvents(n int, seed uint64) []Event {
	r := xrand.New(seed)
	g := hbm.DefaultGeometry
	events := make([]Event, 0, n)
	classes := []ecc.Class{ecc.ClassCE, ecc.ClassUEO, ecc.ClassUER}
	for i := 0; i < n; i++ {
		bank := hbm.RandomBank(g, r)
		addr := hbm.CellInBank(bank, r.Intn(g.RowsPerBank), r.Intn(g.ColsPerBank))
		events = append(events, Event{
			Time:  epoch.Add(time.Duration(r.Intn(1_000_000)) * time.Millisecond),
			Addr:  addr,
			Class: classes[r.Intn(len(classes))],
		})
	}
	return events
}

func TestValidate(t *testing.T) {
	g := hbm.DefaultGeometry
	good := ev(1, 5, ecc.ClassCE)
	if err := good.Validate(g); err != nil {
		t.Fatalf("valid event rejected: %v", err)
	}
	noTime := good
	noTime.Time = time.Time{}
	if err := noTime.Validate(g); err == nil {
		t.Error("zero-time event accepted")
	}
	badClass := good
	badClass.Class = ecc.ClassNone
	if err := badClass.Validate(g); err == nil {
		t.Error("ClassNone event accepted")
	}
	badAddr := good
	badAddr.Addr.Row = g.RowsPerBank
	if err := badAddr.Validate(g); err == nil {
		t.Error("out-of-range address accepted")
	}
}

func TestSortDeterministicTotalOrder(t *testing.T) {
	events := randomEvents(500, 11)
	a := FromEvents(events)
	a.Sort()
	evs := a.Events()
	if !sort.SliceIsSorted(evs, func(i, j int) bool { return evs[i].Before(evs[j]) }) {
		t.Fatal("log not sorted after Sort")
	}
	// Shuffle and re-sort: identical order (total order, no ties left to
	// the sort's mercy).
	shuffled := FromEvents(events)
	r := xrand.New(22)
	evs = shuffled.Events()
	r.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
	b := FromEvents(evs)
	b.Sort()
	sorted := b.Events()
	for i, e := range a.Events() {
		if e != sorted[i] {
			t.Fatalf("sort order not deterministic at %d", i)
		}
	}
}

// TestSortMatchesReflectiveStableSort: Log.Sort orders a log full of ties
// exactly as sort.SliceStable with Before does. The events share one bank and
// a handful of instants and differ in row, class and bits; some instants are
// one moment held with and without a monotonic clock reading or in another
// location, which Before cannot tell apart, so only a stable sort keeps such
// copies in their input order.
func TestSortMatchesReflectiveStableSort(t *testing.T) {
	now := time.Now() // carries a monotonic clock reading
	instants := []time.Time{
		now, now.Round(0), now.In(time.FixedZone("UTC+1", 3600)),
		now.Add(time.Nanosecond), now.Add(-time.Second).Round(0),
	}
	classes := []ecc.Class{ecc.ClassCE, ecc.ClassUEO, ecc.ClassUER}
	r := xrand.New(5)
	bank := hbm.RandomBank(hbm.DefaultGeometry, r)
	events := make([]Event, 2000)
	for i := range events {
		events[i] = Event{
			Time:  instants[r.Intn(len(instants))],
			Addr:  hbm.CellInBank(bank, r.Intn(4), 0),
			Class: classes[r.Intn(len(classes))],
			Bits:  ErrBits(r.Intn(3)),
		}
	}
	want := FromEvents(events).Events()
	sort.SliceStable(want, func(i, j int) bool { return want[i].Before(want[j]) })
	l := FromEvents(events)
	l.Sort()
	for i, e := range l.Events() {
		if e != want[i] {
			t.Fatalf("event %d: Sort gives %+v, sort.SliceStable gives %+v", i, e, want[i])
		}
	}
}

// TestMergeIsStableSortOfConcatenation: Merge of runs, each stable-sorted,
// is exactly the stable sort of their concatenation. The events share one
// bank, a handful of instants, four rows, three classes and three error-bit
// patterns, so most comparisons tie; one instant is also held without its
// monotonic clock reading and in another location, copies Before cannot
// tell apart but == can, spread across runs, so a tie given to the wrong run
// shows. Runs come in every length from empty to long.
func TestMergeIsStableSortOfConcatenation(t *testing.T) {
	now := time.Now() // carries a monotonic clock reading
	instants := []time.Time{
		now, now.Round(0), now.In(time.FixedZone("UTC+1", 3600)),
		now.Add(time.Nanosecond), now.Add(-time.Second).Round(0),
	}
	classes := []ecc.Class{ecc.ClassCE, ecc.ClassUEO, ecc.ClassUER}
	r := xrand.New(7)
	bank := hbm.RandomBank(hbm.DefaultGeometry, r)
	for trial := 0; trial < 200; trial++ {
		runs := make([][]Event, r.Intn(40))
		var all []Event
		for i := range runs {
			runs[i] = make([]Event, r.Intn(4)*r.Intn(20))
			for j := range runs[i] {
				runs[i][j] = Event{
					Time:  instants[r.Intn(len(instants))],
					Addr:  hbm.CellInBank(bank, r.Intn(4), 0),
					Class: classes[r.Intn(len(classes))],
					Bits:  ErrBits(r.Intn(3)),
				}
			}
			SortEvents(runs[i])
			all = append(all, runs[i]...)
		}
		want := slices.Clone(all)
		slices.SortStableFunc(want, compareEvents)
		got := Merge(runs)
		if got.Len() != len(want) {
			t.Fatalf("trial %d: merged %d events, want %d", trial, got.Len(), len(want))
		}
		for i, e := range got.Events() {
			if e != want[i] {
				t.Fatalf("trial %d, event %d of %d from %d runs: Merge gives %+v, the stable sort %+v",
					trial, i, len(want), len(runs), e, want[i])
			}
		}
		if !slices.Equal(slices.Concat(runs...), all) {
			t.Fatalf("trial %d: Merge modified its runs", trial)
		}
	}
}

// TestEventSize pins the event at 64 B: a 24 B time, a 32 B cell address, a
// class byte and the error bits. Every reader, sort and validator moves it.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got > 64 {
		t.Errorf("Event is %d B, want at most 64", got)
	}
}

func TestFilterClass(t *testing.T) {
	l := FromEvents([]Event{
		ev(1, 1, ecc.ClassCE), ev(2, 2, ecc.ClassUEO),
		ev(3, 3, ecc.ClassUER), ev(4, 4, ecc.ClassCE),
	})
	ces := l.FilterClass(ecc.ClassCE)
	if ces.Len() != 2 {
		t.Fatalf("FilterClass(CE) len = %d, want 2", ces.Len())
	}
	uces := l.FilterClass(ecc.ClassUEO, ecc.ClassUER)
	if uces.Len() != 2 {
		t.Fatalf("FilterClass(UEO,UER) len = %d, want 2", uces.Len())
	}
	if l.Len() != 4 {
		t.Fatal("FilterClass mutated the source log")
	}
}

func TestGroupByBank(t *testing.T) {
	bankA := hbm.BankAddress{Node: 1, Bank: 0}
	bankB := hbm.BankAddress{Node: 1, Bank: 1}
	l := FromEvents([]Event{
		{Time: epoch, Addr: hbm.CellInBank(bankA, 1, 0), Class: ecc.ClassCE},
		{Time: epoch, Addr: hbm.CellInBank(bankB, 2, 0), Class: ecc.ClassCE},
		{Time: epoch, Addr: hbm.CellInBank(bankA, 3, 0), Class: ecc.ClassUER},
	})
	groups := l.GroupByBank(hbm.HBM2E)
	if len(groups) != 2 {
		t.Fatalf("GroupByBank returned %d groups, want 2", len(groups))
	}
	if got := len(groups[bankA.BankKey()]); got != 2 {
		t.Fatalf("bank A has %d events, want 2", got)
	}
}

func TestCountByClassAndEntities(t *testing.T) {
	bank := hbm.BankAddress{Node: 2}
	l := FromEvents([]Event{
		{Time: epoch, Addr: hbm.CellInBank(bank, 1, 0), Class: ecc.ClassCE},
		{Time: epoch, Addr: hbm.CellInBank(bank, 1, 5), Class: ecc.ClassCE},
		{Time: epoch, Addr: hbm.CellInBank(bank, 2, 0), Class: ecc.ClassUER},
	})
	// Two CE events in the same row: one row entity with CE.
	if got := l.Entities(hbm.HBM2E, hbm.LevelRow, ecc.ClassCE); got != 1 {
		t.Fatalf("rows with CE = %d, want 1", got)
	}
	if got := l.Entities(hbm.HBM2E, hbm.LevelBank, ecc.ClassUER); got != 1 {
		t.Fatalf("banks with UER = %d, want 1", got)
	}
	if got := l.Entities(hbm.HBM2E, hbm.LevelRow); got != 2 {
		t.Fatalf("distinct rows = %d, want 2", got)
	}
	if got := l.Entities(hbm.HBM2E, hbm.LevelNPU); got != 1 {
		t.Fatalf("distinct NPUs = %d, want 1", got)
	}
}

func TestDedupe(t *testing.T) {
	e := ev(1, 1, ecc.ClassCE)
	events := []Event{e, e, e, ev(2, 2, ecc.ClassUER), ev(2, 2, ecc.ClassUER)}
	SortEvents(events)
	events = DedupeEvents(events)
	if len(events) != 2 {
		t.Fatalf("post-dedupe len = %d, want 2", len(events))
	}
	if len(DedupeEvents(events)) != 2 {
		t.Fatal("DedupeEvents not idempotent")
	}
}

func TestSpan(t *testing.T) {
	var empty Log
	if _, _, ok := empty.Span(); ok {
		t.Fatal("empty log reported a span")
	}
	l := FromEvents([]Event{ev(3, 0, ecc.ClassCE), ev(9, 1, ecc.ClassCE)})
	l.Sort()
	first, last, ok := l.Span()
	if !ok || !first.Equal(epoch.Add(3*time.Second)) || !last.Equal(epoch.Add(9*time.Second)) {
		t.Fatalf("Span = %v..%v ok=%v", first, last, ok)
	}
}

// Append adds events to the log: how a test builds one event by event.
func (l *Log) Append(events ...Event) {
	l.events = append(l.events, events...)
}

func TestZeroValueLogUsable(t *testing.T) {
	var l Log
	l.Sort()
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); l.Len() != 0 || len(l.Events()) != 0 || err != nil || buf.Len() != 0 {
		t.Fatal("zero-value Log not usable")
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	l := FromEvents([]Event{ev(1, 1, ecc.ClassCE)})
	got := l.Events()
	got[0].Addr.Row = 999
	if l.Events()[0].Addr.Row == 999 {
		t.Fatal("Events returned a view into internal storage")
	}
}
