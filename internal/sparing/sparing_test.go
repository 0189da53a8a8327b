package sparing

import (
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

// TestTwoBanksSpareOneRow: the row table is keyed by bank and row, so two
// banks sparing the same row number each keep their own time and budget, and
// both rows count as isolated.
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
}
