// Package sparing models the mitigation mechanisms the paper's isolation
// strategy drives (§I, §IV-C): hardware row sparing for aggregation failure
// patterns and hardware bank sparing for scattered patterns. An Engine tracks
// spare budgets and isolation times so that the Isolation Coverage Rate — the
// fraction of UER rows isolated before they failed — can be computed
// faithfully.
package sparing

import (
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
// keying banks and channels under its profile's layout. The zero value is not
// usable; construct with NewEngineFor. Engine is not safe for concurrent use.
type Engine struct {
	budget Budget
	layout *hbm.Layout

	// rowIsolated[{bankKey, row}] = earliest isolation time.
	rowIsolated map[bankRow]time.Time
	// bankIsolated[bankKey] = isolation time.
	bankIsolated map[uint64]time.Time
	// rowSparesUsed[bankKey] and bankSparesUsed[channelKey] track budget
	// consumption.
	rowSparesUsed  map[uint64]int
	bankSparesUsed map[uint64]int
}

// bankRow names one row of one bank: the bank's key and the row.
type bankRow struct {
	bank uint64
	row  int
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
		rowIsolated:    make(map[bankRow]time.Time),
		bankIsolated:   make(map[uint64]time.Time),
		rowSparesUsed:  make(map[uint64]int),
		bankSparesUsed: make(map[uint64]int),
	}, nil
}

// markRow records row isolation at t, keeping the earliest time.
func (e *Engine) markRow(bankKey uint64, row int, t time.Time) {
	k := bankRow{bankKey, row}
	if prev, ok := e.rowIsolated[k]; !ok || t.Before(prev) {
		e.rowIsolated[k] = t
	}
}

// SpareRows row-spares the given rows of bank at time t, consuming one spare
// per not-yet-isolated row. It applies as many rows as the budget allows (in
// ascending row order) and returns how many it spared; IsRowSparedBefore says
// which. Rows already isolated are skipped without consuming budget. The
// caller's rows are neither modified nor retained; ascending rows (every
// strategy's) are read in place, others through a sorted copy.
func (e *Engine) SpareRows(bank hbm.BankAddress, rows []int, t time.Time) int {
	key := e.layout.PackBank(bank)
	sorted := rows
	if !slices.IsSorted(rows) {
		sorted = slices.Clone(rows)
		slices.Sort(sorted)
	}
	applied := 0
	for _, row := range sorted {
		if e.isRowIsolatedAt(key, row, t) {
			continue
		}
		if e.rowSparesUsed[key] >= e.budget.RowSparesPerBank {
			break
		}
		e.rowSparesUsed[key]++
		e.markRow(key, row, t)
		applied++
	}
	return applied
}

// SpareBank bank-spares the whole bank at time t. It fails when the
// channel's spare banks are exhausted; a bank already spared is a no-op.
func (e *Engine) SpareBank(bank hbm.BankAddress, t time.Time) error {
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

// isRowIsolatedAt reports whether the row is covered by an isolation that
// took effect at or before t.
func (e *Engine) isRowIsolatedAt(bankKey uint64, row int, t time.Time) bool {
	if bt, ok := e.bankIsolated[bankKey]; ok && !bt.After(t) {
		return true
	}
	if rt, ok := e.rowIsolated[bankRow{bankKey, row}]; ok && !rt.After(t) {
		return true
	}
	return false
}

// IsRowIsolatedBefore reports whether the row was isolated strictly before
// t by any mechanism — the coverage predicate behind the total Isolation
// Coverage Rate.
func (e *Engine) IsRowIsolatedBefore(bank hbm.BankAddress, row int, t time.Time) bool {
	if e.IsRowSparedBefore(bank, row, t) {
		return true
	}
	if bt, ok := e.bankIsolated[e.layout.PackBank(bank)]; ok && bt.Before(t) {
		return true
	}
	return false
}

// IsRowSparedBefore reports whether the row itself was isolated (row spare
// or page offline) strictly before t, excluding whole-bank isolation — the
// predicate behind the paper's cross-row ICR, which credits only row-level
// predictions.
func (e *Engine) IsRowSparedBefore(bank hbm.BankAddress, row int, t time.Time) bool {
	rt, ok := e.rowIsolated[bankRow{e.layout.PackBank(bank), row}]
	return ok && rt.Before(t)
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
	for _, n := range e.rowSparesUsed {
		s.RowSpares += n
	}
	for _, n := range e.bankSparesUsed {
		s.BankSpares += n
	}
	s.IsolatedBanks = len(e.bankIsolated)
	s.IsolatedRows = len(e.rowIsolated)
	return s
}
