package sparing

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"cordial/internal/hbm"
)

var t0 = time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)

func at(h int) time.Time { return t0.Add(time.Duration(h) * time.Hour) }

func newEngine(t *testing.T, b Budget) *Engine {
	t.Helper()
	e, err := NewEngine(b)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineRejectsNegativeBudget(t *testing.T) {
	if _, err := NewEngine(Budget{RowSparesPerBank: -1}); err == nil {
		t.Fatal("negative budget accepted")
	}
}

// sparedRows returns which of rows e reports spared before t.
func sparedRows(e *Engine, bank hbm.BankAddress, rows []int, t time.Time) []int {
	var spared []int
	for _, r := range rows {
		if e.IsRowSparedBefore(bank, r, t) {
			spared = append(spared, r)
		}
	}
	return spared
}

func TestSpareRowsBasics(t *testing.T) {
	e := newEngine(t, DefaultBudget())
	bank := hbm.BankAddress{Node: 1}
	if n := e.SpareRows(bank, []int{10, 5, 7}, at(1)); n != 3 {
		t.Fatalf("applied %d rows, want 3", n)
	}
	if got := sparedRows(e, bank, []int{4, 5, 6, 7, 10, 11}, at(2)); !slices.Equal(got, []int{5, 7, 10}) {
		t.Fatalf("spared rows %v, want [5 7 10]", got)
	}
	if !e.IsRowIsolatedBefore(bank, 7, at(2)) {
		t.Fatal("row 7 not isolated before hour 2")
	}
	if e.IsRowIsolatedBefore(bank, 7, at(1)) {
		t.Fatal("isolation at t must not cover strictly-before t")
	}
	if e.IsRowIsolatedBefore(bank, 99, at(5)) {
		t.Fatal("unspared row reported isolated")
	}
}

// TestSpareRowsNeverTouchesCallerRows: SpareRows reads ascending rows in place
// and sorts a copy of others, but in neither case writes the caller's slice or
// keeps it — the caller may reuse it for its next decision.
func TestSpareRowsNeverTouchesCallerRows(t *testing.T) {
	for _, rows := range [][]int{{3, 4, 5, 9}, {9, 3, 5, 4}} {
		e := newEngine(t, DefaultBudget())
		bank := hbm.BankAddress{Node: 3}
		caller := append([]int(nil), rows...)
		if n := e.SpareRows(bank, caller, at(1)); n != 4 {
			t.Errorf("SpareRows(%v) applied %d rows, want 4", rows, n)
		}
		if !slices.Equal(caller, rows) {
			t.Errorf("SpareRows(%v) left the caller's rows as %v", rows, caller)
		}
		clear(caller) // the caller reuses its buffer
		for _, r := range []int{3, 4, 5, 9} {
			if !e.IsRowIsolatedBefore(bank, r, at(2)) {
				t.Errorf("after the caller reused its rows, row %d of %v is not isolated", r, rows)
			}
		}
		if e.IsRowSparedBefore(bank, 0, at(2)) {
			t.Errorf("the zeroed caller rows were spared after the call")
		}
	}
}

func TestSpareRowsRespectsBudget(t *testing.T) {
	e := newEngine(t, Budget{RowSparesPerBank: 2, BankSparesPerChannel: 1})
	bank := hbm.BankAddress{}
	if n := e.SpareRows(bank, []int{4, 3, 2, 1}, at(1)); n != 2 {
		t.Fatalf("applied %d rows with budget 2", n)
	}
	if got := sparedRows(e, bank, []int{1, 2, 3, 4}, at(2)); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("spared rows %v, want the two lowest", got)
	}
	// Second call: budget exhausted.
	if n := e.SpareRows(bank, []int{9}, at(2)); n != 0 || e.IsRowSparedBefore(bank, 9, at(3)) {
		t.Fatalf("over-budget sparing applied %d rows", n)
	}
	// A different bank has its own budget.
	other := hbm.BankAddress{Bank: 1}
	if n := e.SpareRows(other, []int{1}, at(2)); n != 1 || !e.IsRowSparedBefore(other, 1, at(3)) {
		t.Fatalf("other bank sparing applied %d rows", n)
	}
}

func TestSpareRowsSkipsAlreadyIsolatedWithoutConsumingBudget(t *testing.T) {
	e := newEngine(t, Budget{RowSparesPerBank: 2, BankSparesPerChannel: 1})
	bank := hbm.BankAddress{}
	e.SpareRows(bank, []int{5}, at(1))
	if n := e.SpareRows(bank, []int{5, 6}, at(2)); n != 1 {
		t.Fatalf("re-sparing applied %d rows, want 1", n)
	}
	if !e.IsRowSparedBefore(bank, 5, at(2)) || e.IsRowSparedBefore(bank, 6, at(2)) || !e.IsRowSparedBefore(bank, 6, at(3)) {
		t.Fatal("row 5 must keep hour 1 and row 6 be spared at hour 2")
	}
	if e.Usage().RowSpares != 2 {
		t.Fatalf("row spares used = %d, want 2", e.Usage().RowSpares)
	}
}

// TestTwoBanksSpareOneRow: each bank keeps its own ledger, so two banks
// sparing the same row number each keep their own time and budget, and both
// rows count as isolated.
func TestTwoBanksSpareOneRow(t *testing.T) {
	e := newEngine(t, Budget{RowSparesPerBank: 1, BankSparesPerChannel: 1})
	a, b := hbm.BankAddress{Bank: 1}, hbm.BankAddress{Bank: 2}
	if n := e.SpareRows(a, []int{7}, at(1)); n != 1 {
		t.Fatalf("bank a applied %d rows", n)
	}
	if n := e.SpareRows(b, []int{7}, at(5)); n != 1 {
		t.Fatalf("bank b applied %d rows: a's spare of row 7 counted against it", n)
	}
	if !e.IsRowSparedBefore(a, 7, at(2)) || e.IsRowSparedBefore(b, 7, at(2)) || !e.IsRowSparedBefore(b, 7, at(6)) {
		t.Fatal("the two banks' row 7 do not keep their own times (a at hour 1, b at hour 5)")
	}
	if n := e.SpareRows(a, []int{8}, at(6)); n != 0 {
		t.Fatalf("bank a spared %d rows past its budget of one", n)
	}
	if u := e.Usage(); u.IsolatedRows != 2 || u.RowSpares != 2 {
		t.Fatalf("usage %+v, want 2 isolated rows and 2 row spares", u)
	}
}

// TestRespareAllocatesNothing: a warmed engine asked to spare rows it already
// holds allocates nothing.
func TestRespareAllocatesNothing(t *testing.T) {
	e := newEngine(t, DefaultBudget())
	bank := hbm.BankAddress{Node: 4}
	rows := []int{10, 11, 12, 13, 14, 15, 16, 17}
	e.SpareRows(bank, rows, at(1))
	if allocs := testing.AllocsPerRun(100, func() {
		if n := e.SpareRows(bank, rows, at(2)); n != 0 {
			t.Errorf("re-sparing applied %d rows", n)
		}
	}); allocs != 0 {
		t.Errorf("re-sparing held rows allocates %v times, want 0", allocs)
	}
}

func TestSpareBank(t *testing.T) {
	e := newEngine(t, Budget{RowSparesPerBank: 1, BankSparesPerChannel: 1})
	bank := hbm.BankAddress{Node: 2}
	if err := e.SpareBank(bank, at(3)); err != nil {
		t.Fatal(err)
	}
	// Bank sparing covers every row in the bank.
	if !e.IsRowIsolatedBefore(bank, 12345, at(4)) {
		t.Fatal("bank sparing does not cover rows")
	}
	// Re-sparing the same bank is a no-op (keeps earliest time).
	if err := e.SpareBank(bank, at(10)); err != nil {
		t.Fatal(err)
	}
	// A second bank on the same channel exhausts the channel budget.
	sibling := bank
	sibling.Bank = 3
	if err := e.SpareBank(sibling, at(4)); err == nil {
		t.Fatal("channel bank-spare budget not enforced")
	}
	// A bank on a different channel succeeds.
	elsewhere := bank
	elsewhere.Channel = 5
	if err := e.SpareBank(elsewhere, at(4)); err != nil {
		t.Fatal(err)
	}
}

func TestSpareBankKeepsEarliestTime(t *testing.T) {
	e := newEngine(t, DefaultBudget())
	bank := hbm.BankAddress{}
	if err := e.SpareBank(bank, at(10)); err != nil {
		t.Fatal(err)
	}
	if err := e.SpareBank(bank, at(2)); err != nil {
		t.Fatal(err)
	}
	if !e.IsRowIsolatedBefore(bank, 1, at(3)) {
		t.Fatal("earlier re-isolation time not kept")
	}
}

func TestUsage(t *testing.T) {
	e := newEngine(t, DefaultBudget())
	e.SpareRows(hbm.BankAddress{}, []int{1, 2}, at(1))
	if err := e.SpareBank(hbm.BankAddress{Bank: 1}, at(2)); err != nil {
		t.Fatal(err)
	}
	e.SpareRows(hbm.BankAddress{Bank: 2}, []int{5}, at(3))

	u := e.Usage()
	if u.RowSpares != 3 || u.BankSpares != 1 {
		t.Fatalf("usage = %+v", u)
	}
	if u.IsolatedBanks != 1 || u.IsolatedRows != 3 {
		t.Fatalf("usage = %+v", u)
	}
}

func TestActionKindString(t *testing.T) {
	for k, want := range map[ActionKind]string{
		ActionRowSpare:    "row-spare",
		ActionBankSpare:   "bank-spare",
		ActionPageOffline: "page-offline",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q", int(k), got)
		}
	}
}

func TestRowSpareKeepsEarliestTime(t *testing.T) {
	e := newEngine(t, DefaultBudget())
	bank := hbm.BankAddress{}
	e.SpareRows(bank, []int{4}, at(5))
	// Row 4 is isolated from hour 5 on; a spare of it dated hour 1 is not
	// yet covered there, so it applies and the earlier time is kept.
	e.SpareRows(bank, []int{4}, at(1))
	if !e.IsRowIsolatedBefore(bank, 4, at(2)) {
		t.Fatal("earliest isolation time not kept for row")
	}
	// The second spare was applied, so it cost a spare of its own.
	if u := e.Usage(); u.RowSpares != 2 || u.IsolatedRows != 1 {
		t.Fatalf("usage %+v, want 2 row spares for 1 isolated row", u)
	}
}

// mapEngine is the ledger the Engine had before it kept one per bank: three
// maps, one keyed by (bank key, row), times compared by time.Time. It is the
// reference TestLedgerMatchesMapEngine holds the Engine to.
type mapEngine struct {
	budget         Budget
	layout         *hbm.Layout
	rowIsolated    map[mapRow]time.Time
	bankIsolated   map[uint64]time.Time
	rowSparesUsed  map[uint64]int
	bankSparesUsed map[uint64]int
}

type mapRow struct {
	bank uint64
	row  int
}

func newMapEngine(b Budget) *mapEngine {
	return &mapEngine{
		budget:         b,
		layout:         &hbm.HBM2E.Layout,
		rowIsolated:    make(map[mapRow]time.Time),
		bankIsolated:   make(map[uint64]time.Time),
		rowSparesUsed:  make(map[uint64]int),
		bankSparesUsed: make(map[uint64]int),
	}
}

func (e *mapEngine) SpareRows(bank hbm.BankAddress, rows []int, t time.Time) int {
	key := e.layout.PackBank(bank)
	sorted := slices.Clone(rows)
	slices.Sort(sorted)
	applied := 0
	for _, row := range sorted {
		if bt, ok := e.bankIsolated[key]; ok && !bt.After(t) {
			continue
		}
		if rt, ok := e.rowIsolated[mapRow{key, row}]; ok && !rt.After(t) {
			continue
		}
		if e.rowSparesUsed[key] >= e.budget.RowSparesPerBank {
			break
		}
		e.rowSparesUsed[key]++
		if prev, ok := e.rowIsolated[mapRow{key, row}]; !ok || t.Before(prev) {
			e.rowIsolated[mapRow{key, row}] = t
		}
		applied++
	}
	return applied
}

func (e *mapEngine) SpareBank(bank hbm.BankAddress, t time.Time) error {
	key := e.layout.PackBank(bank)
	if prev, ok := e.bankIsolated[key]; ok {
		if t.Before(prev) {
			e.bankIsolated[key] = t
		}
		return nil
	}
	chKey := e.layout.EntityKey(hbm.CellInBank(bank, 0, 0), hbm.LevelChannel)
	if e.bankSparesUsed[chKey] >= e.budget.BankSparesPerChannel {
		return fmt.Errorf("sparing: channel %v out of bank spares (%d used)",
			e.layout.Unpack(chKey), e.bankSparesUsed[chKey])
	}
	e.bankSparesUsed[chKey]++
	e.bankIsolated[key] = t
	return nil
}

func (e *mapEngine) IsRowSparedBefore(bank hbm.BankAddress, row int, t time.Time) bool {
	rt, ok := e.rowIsolated[mapRow{e.layout.PackBank(bank), row}]
	return ok && rt.Before(t)
}

func (e *mapEngine) IsRowIsolatedBefore(bank hbm.BankAddress, row int, t time.Time) bool {
	if e.IsRowSparedBefore(bank, row, t) {
		return true
	}
	bt, ok := e.bankIsolated[e.layout.PackBank(bank)]
	return ok && bt.Before(t)
}

func (e *mapEngine) Usage() UsageStats {
	var s UsageStats
	for _, n := range e.rowSparesUsed {
		s.RowSpares += n
	}
	for _, n := range e.bankSparesUsed {
		s.BankSpares += n
	}
	s.IsolatedBanks, s.IsolatedRows = len(e.bankIsolated), len(e.rowIsolated)
	return s
}

// ledgerSchedule is one seeded run of the property: a budget, a few banks
// (some sharing a channel) and the schedule's clock.
type ledgerSchedule struct {
	rng    *rand.Rand
	budget Budget
	banks  []hbm.BankAddress
	rowCap int // rows are drawn from [0, rowCap)
	now    time.Time
}

// ledgerEpochs are the instants a schedule starts at: the zero time.Time and
// either side of the years (1678, 2262) where UnixNano overflows, besides the
// fleets' present.
var ledgerEpochs = []time.Time{
	{},
	time.Date(1600, 3, 1, 0, 0, 0, 0, time.UTC),
	time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC),
	time.Date(2300, 7, 1, 12, 0, 0, 0, time.UTC),
}

// ledgerBudgets are the row budgets the schedules cycle through: none, one,
// the default and one large enough that a bank's run grows past its first.
var ledgerBudgets = []int{0, 1, 64, 10_000}

func newLedgerSchedule(seed uint64) *ledgerSchedule {
	s := &ledgerSchedule{rng: rand.New(rand.NewPCG(seed, 0x5eed))}
	s.budget = Budget{
		RowSparesPerBank:     ledgerBudgets[seed%uint64(len(ledgerBudgets))],
		BankSparesPerChannel: s.rng.IntN(3),
	}
	s.rowCap = 100
	if s.budget.RowSparesPerBank > firstRunMarks {
		s.rowCap = 600
	}
	for i := range 2 + s.rng.IntN(5) {
		// Banks 0, 1 and 6 share channel 0; the rest spread over two more.
		s.banks = append(s.banks, hbm.BankAddress{Channel: uint8(i / 2 % 3), BankGroup: uint8(i % 2), Bank: uint8(i % 4)})
	}
	s.now = ledgerEpochs[(seed/uint64(len(ledgerBudgets)))%uint64(len(ledgerEpochs))]
	return s
}

// step moves the schedule's clock on (often not at all, often by less than a
// second) and returns the new time, sometimes in a zone other than UTC.
func (s *ledgerSchedule) step() time.Time {
	switch s.rng.IntN(4) {
	case 0: // equal times
	case 1:
		s.now = s.now.Add(time.Duration(s.rng.IntN(int(time.Second))))
	default:
		s.now = s.now.Add(time.Duration(s.rng.IntN(3600)) * time.Second)
	}
	return s.zoned(s.now)
}

// back returns a time at or before the schedule's clock: a re-spare dated
// back.
func (s *ledgerSchedule) back() time.Time {
	return s.zoned(s.now.Add(-time.Duration(s.rng.Int64N(int64(2 * time.Hour)))))
}

func (s *ledgerSchedule) zoned(t time.Time) time.Time {
	if s.rng.IntN(4) == 0 {
		return t.In(time.FixedZone("east", 8*3600))
	}
	return t
}

// rows draws a decision's rows: unsorted, with duplicates, sometimes none.
func (s *ledgerSchedule) rows() []int {
	n := s.rng.IntN(12)
	if s.rowCap > 100 && s.rng.IntN(3) == 0 {
		n = 50 + s.rng.IntN(150)
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = s.rng.IntN(s.rowCap)
	}
	if s.rng.IntN(2) == 0 {
		slices.Sort(rows)
	}
	return rows
}

// TestLedgerMatchesMapEngine: over 1 000 seeded schedules — banks spared in
// interleaved time order as the benchmark's coverage pass drives them,
// unsorted and duplicate rows, rows re-spared at an earlier time, equal
// times, channels running out of bank spares, row budgets 0, 1, 64 and
// 10 000, and times at the zero time.Time, before 1678 and after 2262 — every
// SpareRows count, SpareBank error, coverage answer and Usage of the Engine
// equals the map ledger's.
func TestLedgerMatchesMapEngine(t *testing.T) {
	for seed := range uint64(1000) {
		s := newLedgerSchedule(seed)
		got, err := NewEngine(s.budget)
		if err != nil {
			t.Fatal(err)
		}
		want := newMapEngine(s.budget)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d (budget %+v): "+format, append([]any{seed, s.budget}, args...)...)
		}
		query := func(bank hbm.BankAddress, row int, at time.Time) {
			t.Helper()
			if g, w := got.IsRowIsolatedBefore(bank, row, at), want.IsRowIsolatedBefore(bank, row, at); g != w {
				fail("IsRowIsolatedBefore(%v, %d, %v) = %v, want %v", bank, row, at, g, w)
			}
			if g, w := got.IsRowSparedBefore(bank, row, at), want.IsRowSparedBefore(bank, row, at); g != w {
				fail("IsRowSparedBefore(%v, %d, %v) = %v, want %v", bank, row, at, g, w)
			}
		}
		var times []time.Time
		for range 40 + s.rng.IntN(40) {
			bank := s.banks[s.rng.IntN(len(s.banks))]
			at := s.step()
			if s.rng.IntN(5) == 0 {
				at = s.back()
			}
			times = append(times, at)
			switch s.rng.IntN(10) {
			case 0:
				g, w := got.SpareBank(bank, at), want.SpareBank(bank, at)
				if fmt.Sprint(g) != fmt.Sprint(w) {
					fail("SpareBank(%v, %v) = %v, want %v", bank, at, g, w)
				}
			default:
				rows := s.rows()
				if g, w := got.SpareRows(bank, rows, at), want.SpareRows(bank, rows, at); g != w {
					fail("SpareRows(%v, %v, %v) = %d, want %d", bank, rows, at, g, w)
				}
			}
			for range 8 {
				query(s.banks[s.rng.IntN(len(s.banks))], s.rng.IntN(s.rowCap), times[s.rng.IntN(len(times))])
			}
		}
		if g, w := got.Usage(), want.Usage(); g != w {
			fail("Usage() = %+v, want %+v", g, w)
		}
		// Every row at every time the schedule used, and a nanosecond
		// either side of it.
		for _, bank := range s.banks {
			for row := range s.rowCap {
				at := times[s.rng.IntN(len(times))]
				for _, d := range []time.Duration{-1, 0, 1} {
					query(bank, row, at.Add(d))
				}
			}
		}
	}
}
