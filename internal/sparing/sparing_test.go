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

func TestSpareRowsBasics(t *testing.T) {
	e := newEngine(t, DefaultBudget())
	bank := hbm.BankAddress{Node: 1}
	applied := e.SpareRows(bank, []int{10, 5, 7}, at(1))
	if len(applied) != 3 || applied[0] != 5 || applied[2] != 10 {
		t.Fatalf("applied = %v", applied)
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
		applied := e.SpareRows(bank, caller, at(1))
		if !slices.Equal(caller, rows) {
			t.Errorf("SpareRows(%v) left the caller's rows as %v", rows, caller)
		}
		if !slices.Equal(applied, []int{3, 4, 5, 9}) {
			t.Errorf("SpareRows(%v) applied %v", rows, applied)
		}
		clear(caller) // the caller reuses its buffer
		if !slices.Equal(applied, []int{3, 4, 5, 9}) {
			t.Errorf("after the caller reused its rows the applied rows read %v", applied)
		}
		for _, r := range []int{3, 4, 5, 9} {
			if !e.IsRowIsolatedBefore(bank, r, at(2)) {
				t.Errorf("row %d of %v not isolated", r, rows)
			}
		}
	}
}

func TestSpareRowsRespectsBudget(t *testing.T) {
	e := newEngine(t, Budget{RowSparesPerBank: 2, BankSparesPerChannel: 1})
	bank := hbm.BankAddress{}
	applied := e.SpareRows(bank, []int{1, 2, 3, 4}, at(1))
	if len(applied) != 2 {
		t.Fatalf("applied %d rows with budget 2", len(applied))
	}
	// Second call: budget exhausted.
	if got := e.SpareRows(bank, []int{9}, at(2)); len(got) != 0 {
		t.Fatalf("over-budget sparing applied %v", got)
	}
	// A different bank has its own budget.
	other := hbm.BankAddress{Bank: 1}
	if got := e.SpareRows(other, []int{1}, at(2)); len(got) != 1 {
		t.Fatalf("other bank sparing applied %v", got)
	}
}

func TestSpareRowsSkipsAlreadyIsolatedWithoutConsumingBudget(t *testing.T) {
	e := newEngine(t, Budget{RowSparesPerBank: 2, BankSparesPerChannel: 1})
	bank := hbm.BankAddress{}
	e.SpareRows(bank, []int{5}, at(1))
	applied := e.SpareRows(bank, []int{5, 6}, at(2))
	if len(applied) != 1 || applied[0] != 6 {
		t.Fatalf("re-sparing applied %v", applied)
	}
	if e.Usage().RowSpares != 2 {
		t.Fatalf("row spares used = %d, want 2", e.Usage().RowSpares)
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
