// Package sparing models the mitigation mechanisms the paper's isolation
// strategy drives (§I, §IV-C): hardware row sparing for aggregation failure
// patterns and hardware bank sparing for scattered patterns. An Engine tracks
// spare budgets and isolation times so that the Isolation Coverage Rate — the
// fraction of UER rows isolated before they failed — can be computed
// faithfully.
package sparing

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"cordial/internal/hbm"
)

// ActionKind enumerates the mitigation mechanisms.
type ActionKind int

// Mitigation mechanisms.
const (
	// ActionRowSpare remaps a failing row to a spare row inside the bank.
	ActionRowSpare ActionKind = iota + 1
	// ActionBankSpare remaps the whole bank to a spare bank.
	ActionBankSpare
	// ActionPageOffline retires the OS pages backed by the rows.
	ActionPageOffline
)

// String names the action kind.
func (k ActionKind) String() string {
	switch k {
	case ActionRowSpare:
		return "row-spare"
	case ActionBankSpare:
		return "bank-spare"
	case ActionPageOffline:
		return "page-offline"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// Budget bounds the spare resources. The defaults reflect the paper's cost
// argument: row spares are cheap and plentiful per bank, bank spares are
// scarce and shared at channel granularity.
type Budget struct {
	// RowSparesPerBank is the number of spare rows each bank has.
	RowSparesPerBank int
	// BankSparesPerChannel is the number of spare banks per channel.
	BankSparesPerChannel int
}

// DefaultBudget returns a budget consistent with HBM2E repair resources.
func DefaultBudget() Budget {
	return Budget{
		RowSparesPerBank:     64,
		BankSparesPerChannel: 2,
	}
}

// Validate checks the budget.
func (b Budget) Validate() error {
	if b.RowSparesPerBank < 0 || b.BankSparesPerChannel < 0 {
		return fmt.Errorf("sparing: negative budget %+v", b)
	}
	return nil
}

// Engine applies mitigations under a budget and answers coverage queries,
// keying banks and channels under its profile's layout. Each bank it has
// touched owns one ledger: the row spares it used, when it was bank-spared,
// and its isolated rows in row order, each at the earliest time it was
// isolated. Times compare by wall clock: a monotonic reading is ignored, as
// every caller's times are generated or decoded. The zero value is not
// usable; construct with NewEngineFor. Engine is not safe for concurrent use.
type Engine struct {
	budget Budget
	layout *hbm.Layout

	// index[bankKey] is the bank's ledger in ledgers.
	index   map[uint64]int32
	ledgers []bankLedger
	// free is the unused tail of the chunk that ledgers' marks are carved
	// from, so no bank pays an allocation of its own.
	free []mark
	// bankSparesUsed[channelKey] tracks bank-spare consumption.
	bankSparesUsed map[uint64]int
}

// Marks are carved from chunks of chunkMarks; a bank's first run holds up to
// firstRunMarks and doubles past that, up to the row budget.
const (
	chunkMarks    = 1024
	firstRunMarks = 64
)

// bankLedger is one bank's spare account.
type bankLedger struct {
	// marks are the isolated rows in ascending row order.
	marks []mark
	// bankSec and bankNsec are the bank-spare time; bankNsec is notSpared
	// while the bank is not.
	bankSec  int64
	bankNsec int32
	// used counts the row spares the bank consumed.
	used int32
}

// notSpared is a ledger's bankNsec while its bank holds no bank spare.
const notSpared = -1

// mark is one isolated row and the wall-clock time it was isolated, in 16
// bytes.
type mark struct {
	sec  int64
	nsec int32
	row  int32
}

// wall returns t's wall-clock reading: seconds since the Unix epoch and the
// nanosecond within the second.
func wall(t time.Time) (int64, int32) { return t.Unix(), int32(t.Nanosecond()) }

// earlier reports whether wall time (s1, n1) is strictly before (s2, n2).
func earlier(s1 int64, n1 int32, s2 int64, n2 int32) bool {
	return s1 < s2 || s1 == s2 && n1 < n2
}

// bankSpared reports whether the bank holds a bank spare.
func (l *bankLedger) bankSpared() bool { return l.bankNsec != notSpared }

// search returns where row is, or would be, in the ledger's marks.
func (l *bankLedger) search(row int) (int, bool) {
	return slices.BinarySearchFunc(l.marks, row, func(m mark, row int) int { return cmp.Compare(int(m.row), row) })
}

// sparedBefore reports whether row was isolated strictly before (sec, nsec).
func (l *bankLedger) sparedBefore(row int, sec int64, nsec int32) bool {
	i, ok := l.search(row)
	return ok && earlier(l.marks[i].sec, l.marks[i].nsec, sec, nsec)
}

// NewEngine is NewEngineFor under hbm2e. Bench-only until ROADMAP item 15.
func NewEngine(budget Budget) (*Engine, error) { return NewEngineFor(hbm.HBM2E, budget) }

// NewEngineFor returns an engine over p's banks with the given budget.
func NewEngineFor(p *hbm.Profile, budget Budget) (*Engine, error) {
	if err := budget.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		budget:         budget,
		layout:         &p.Layout,
		index:          make(map[uint64]int32),
		bankSparesUsed: make(map[uint64]int),
	}, nil
}

// find returns the bank's ledger, or nil when the bank has none.
func (e *Engine) find(bankKey uint64) *bankLedger {
	if i, ok := e.index[bankKey]; ok {
		return &e.ledgers[i]
	}
	return nil
}

// ledger returns the bank's ledger, opening an empty one if it has none.
func (e *Engine) ledger(bankKey uint64) *bankLedger {
	if l := e.find(bankKey); l != nil {
		return l
	}
	e.index[bankKey] = int32(len(e.ledgers))
	e.ledgers = append(e.ledgers, bankLedger{bankNsec: notSpared})
	return &e.ledgers[len(e.ledgers)-1]
}

// insert puts a mark for row at i of l's marks, moving them to a run of twice
// their capacity (up to the budget) when they are full.
func (e *Engine) insert(l *bankLedger, i, row int, sec int64, nsec int32) {
	if int(int32(row)) != row {
		panic(fmt.Sprintf("sparing: row %d outside a mark's 32 bits", row))
	}
	if n := cap(l.marks); len(l.marks) == n {
		n = min(max(2*n, firstRunMarks), e.budget.RowSparesPerBank)
		l.marks = append(e.carve(n), l.marks...)
	}
	l.marks = slices.Insert(l.marks, i, mark{sec, nsec, int32(row)})
}

// carve returns an empty run of capacity n from the current chunk, starting
// a new chunk when it has less than n left.
func (e *Engine) carve(n int) []mark {
	if len(e.free) < n {
		e.free = make([]mark, max(n, chunkMarks))
	}
	run := e.free[:0:n]
	e.free = e.free[n:]
	return run
}

// SpareRows row-spares the given rows of bank at time t, consuming one spare
// per not-yet-isolated row. It applies as many rows as the budget allows (in
// ascending row order) and returns how many it spared; IsRowSparedBefore says
// which. Rows already isolated are skipped without consuming budget. The
// caller's rows are neither modified nor retained; ascending rows (every
// strategy's) are read in place, others through a sorted copy. A row must fit
// 32 bits, as every profile's rows do.
func (e *Engine) SpareRows(bank hbm.BankAddress, rows []int, t time.Time) int {
	sec, nsec := wall(t)
	l := e.ledger(e.layout.PackBank(bank))
	if l.bankSpared() && !earlier(sec, nsec, l.bankSec, l.bankNsec) {
		return 0 // the bank spare covers every row from t on
	}
	sorted := rows
	if !slices.IsSorted(rows) {
		sorted = slices.Clone(rows)
		slices.Sort(sorted)
	}
	applied := 0
	for _, row := range sorted {
		i, held := l.search(row)
		if held && !earlier(sec, nsec, l.marks[i].sec, l.marks[i].nsec) {
			continue // isolated at or before t
		}
		if int(l.used) >= e.budget.RowSparesPerBank {
			break
		}
		l.used++
		if held {
			l.marks[i].sec, l.marks[i].nsec = sec, nsec
		} else {
			e.insert(l, i, row, sec, nsec)
		}
		applied++
	}
	return applied
}

// SpareBank bank-spares the whole bank at time t. It fails when the
// channel's spare banks are exhausted; a bank already spared is a no-op.
func (e *Engine) SpareBank(bank hbm.BankAddress, t time.Time) error {
	key := e.layout.PackBank(bank)
	sec, nsec := wall(t)
	if l := e.find(key); l != nil && l.bankSpared() {
		if earlier(sec, nsec, l.bankSec, l.bankNsec) {
			l.bankSec, l.bankNsec = sec, nsec
		}
		return nil
	}
	chKey := e.layout.EntityKey(hbm.CellInBank(bank, 0, 0), hbm.LevelChannel)
	if e.bankSparesUsed[chKey] >= e.budget.BankSparesPerChannel {
		return fmt.Errorf("sparing: channel %v out of bank spares (%d used)",
			e.layout.Unpack(chKey), e.bankSparesUsed[chKey])
	}
	e.bankSparesUsed[chKey]++
	l := e.ledger(key)
	l.bankSec, l.bankNsec = sec, nsec
	return nil
}

// IsRowIsolatedBefore reports whether the row was isolated strictly before
// t by any mechanism — the coverage predicate behind the total Isolation
// Coverage Rate.
func (e *Engine) IsRowIsolatedBefore(bank hbm.BankAddress, row int, t time.Time) bool {
	l := e.find(e.layout.PackBank(bank))
	if l == nil {
		return false
	}
	sec, nsec := wall(t)
	return l.sparedBefore(row, sec, nsec) || l.bankSpared() && earlier(l.bankSec, l.bankNsec, sec, nsec)
}

// IsRowSparedBefore reports whether the row itself was isolated (row spare
// or page offline) strictly before t, excluding whole-bank isolation — the
// predicate behind the paper's cross-row ICR, which credits only row-level
// predictions.
func (e *Engine) IsRowSparedBefore(bank hbm.BankAddress, row int, t time.Time) bool {
	l := e.find(e.layout.PackBank(bank))
	if l == nil {
		return false
	}
	sec, nsec := wall(t)
	return l.sparedBefore(row, sec, nsec)
}

// UsageStats summarises consumed spare resources.
type UsageStats struct {
	RowSpares     int
	BankSpares    int
	IsolatedBanks int
	IsolatedRows  int
}

// Usage returns the engine's consumption totals.
func (e *Engine) Usage() UsageStats {
	var s UsageStats
	for i := range e.ledgers {
		l := &e.ledgers[i]
		s.RowSpares += int(l.used)
		s.IsolatedRows += len(l.marks)
		if l.bankSpared() {
			s.IsolatedBanks++
		}
	}
	for _, n := range e.bankSparesUsed {
		s.BankSpares += n
	}
	return s
}
