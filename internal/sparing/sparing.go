// Package sparing models the mitigation mechanisms the paper's isolation
// strategy drives (§I, §IV-C): hardware row sparing for aggregation failure
// patterns, hardware bank sparing for scattered patterns, and OS-level page
// offlining as the software fallback. An Engine tracks spare budgets and
// isolation times so that the Isolation Coverage Rate — the fraction of UER
// rows isolated before they failed — can be computed faithfully.
package sparing

import (
	"fmt"
	"slices"
	"sort"
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

// Action records one applied mitigation.
type Action struct {
	Kind ActionKind
	Bank hbm.BankAddress
	// Rows lists the isolated rows for row-granular actions; empty for
	// bank sparing.
	Rows []int
	Time time.Time
}

// Budget bounds the spare resources. The defaults reflect the paper's cost
// argument: row spares are cheap and plentiful per bank, bank spares are
// scarce and shared at channel granularity, page offlining is bounded
// per HBM by the OS retirement limit.
type Budget struct {
	// RowSparesPerBank is the number of spare rows each bank has.
	RowSparesPerBank int
	// BankSparesPerChannel is the number of spare banks per channel.
	BankSparesPerChannel int
	// OfflinePagesPerHBM caps page-offline rows per HBM stack.
	OfflinePagesPerHBM int
}

// DefaultBudget returns a budget consistent with HBM2E repair resources.
func DefaultBudget() Budget {
	return Budget{
		RowSparesPerBank:     64,
		BankSparesPerChannel: 2,
		OfflinePagesPerHBM:   256,
	}
}

// Validate checks the budget.
func (b Budget) Validate() error {
	if b.RowSparesPerBank < 0 || b.BankSparesPerChannel < 0 || b.OfflinePagesPerHBM < 0 {
		return fmt.Errorf("sparing: negative budget %+v", b)
	}
	return nil
}

// Engine applies mitigations under a budget and answers coverage queries.
// The zero value is not usable; construct with NewEngine. Engine is not safe
// for concurrent use.
type Engine struct {
	budget Budget

	// rowIsolated[bankKey][row] = earliest isolation time.
	rowIsolated map[uint64]map[int]time.Time
	// bankIsolated[bankKey] = isolation time.
	bankIsolated map[uint64]time.Time
	// rowSparesUsed[bankKey], bankSparesUsed[channelKey],
	// pagesUsed[hbmKey] track budget consumption.
	rowSparesUsed  map[uint64]int
	bankSparesUsed map[uint64]int
	pagesUsed      map[uint64]int

	actions []Action
}

// NewEngine returns an engine with the given budget.
func NewEngine(budget Budget) (*Engine, error) {
	if err := budget.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		budget:         budget,
		rowIsolated:    make(map[uint64]map[int]time.Time),
		bankIsolated:   make(map[uint64]time.Time),
		rowSparesUsed:  make(map[uint64]int),
		bankSparesUsed: make(map[uint64]int),
		pagesUsed:      make(map[uint64]int),
	}, nil
}

// Budget returns the engine's budget.
func (e *Engine) Budget() Budget { return e.budget }

// Actions returns a copy of all applied actions, in application order.
func (e *Engine) Actions() []Action {
	out := make([]Action, len(e.actions))
	copy(out, e.actions)
	return out
}

// markRow records row isolation at t, keeping the earliest time.
func (e *Engine) markRow(bankKey uint64, row int, t time.Time) {
	rows := e.rowIsolated[bankKey]
	if rows == nil {
		rows = make(map[int]time.Time)
		e.rowIsolated[bankKey] = rows
	}
	if prev, ok := rows[row]; !ok || t.Before(prev) {
		rows[row] = t
	}
}

// SpareRows row-spares the given rows of bank at time t, consuming one spare
// per not-yet-isolated row. It applies as many rows as the budget allows (in
// ascending row order) and returns the rows actually spared. Rows already
// isolated are skipped without consuming budget. The caller's rows are
// neither modified nor retained; ascending rows (every strategy's) are read in
// place, others through a sorted copy.
func (e *Engine) SpareRows(bank hbm.BankAddress, rows []int, t time.Time) []int {
	key := bank.BankKey()
	sorted := rows
	if !slices.IsSorted(rows) {
		sorted = slices.Clone(rows)
		slices.Sort(sorted)
	}
	var applied []int
	for _, row := range sorted {
		if e.isRowIsolatedAt(key, row, t) {
			continue
		}
		if e.rowSparesUsed[key] >= e.budget.RowSparesPerBank {
			break
		}
		e.rowSparesUsed[key]++
		e.markRow(key, row, t)
		applied = append(applied, row)
	}
	if len(applied) > 0 {
		e.actions = append(e.actions, Action{Kind: ActionRowSpare, Bank: hbm.BankOf(bank), Rows: applied, Time: t})
	}
	return applied
}

// SpareBank bank-spares the whole bank at time t. It fails when the
// channel's spare banks are exhausted; a bank already spared is a no-op.
func (e *Engine) SpareBank(bank hbm.BankAddress, t time.Time) error {
	key := bank.BankKey()
	if prev, ok := e.bankIsolated[key]; ok {
		if t.Before(prev) {
			e.bankIsolated[key] = t
		}
		return nil
	}
	chKey := bank.EntityKey(hbm.LevelChannel)
	if e.bankSparesUsed[chKey] >= e.budget.BankSparesPerChannel {
		return fmt.Errorf("sparing: channel %v out of bank spares (%d used)",
			hbm.Unpack(chKey), e.bankSparesUsed[chKey])
	}
	e.bankSparesUsed[chKey]++
	e.bankIsolated[key] = t
	e.actions = append(e.actions, Action{Kind: ActionBankSpare, Bank: hbm.BankOf(bank), Time: t})
	return nil
}

// OfflinePages retires the pages backing the given rows at time t, bounded
// by the per-HBM offline budget. It returns the rows actually offlined.
func (e *Engine) OfflinePages(bank hbm.BankAddress, rows []int, t time.Time) []int {
	bankKey := bank.BankKey()
	hbmKey := bank.EntityKey(hbm.LevelHBM)
	sorted := append([]int(nil), rows...)
	sort.Ints(sorted)
	var applied []int
	for _, row := range sorted {
		if e.isRowIsolatedAt(bankKey, row, t) {
			continue
		}
		if e.pagesUsed[hbmKey] >= e.budget.OfflinePagesPerHBM {
			break
		}
		e.pagesUsed[hbmKey]++
		e.markRow(bankKey, row, t)
		applied = append(applied, row)
	}
	if len(applied) > 0 {
		e.actions = append(e.actions, Action{Kind: ActionPageOffline, Bank: hbm.BankOf(bank), Rows: applied, Time: t})
	}
	return applied
}

// isRowIsolatedAt reports whether the row is covered by an isolation that
// took effect at or before t.
func (e *Engine) isRowIsolatedAt(bankKey uint64, row int, t time.Time) bool {
	if bt, ok := e.bankIsolated[bankKey]; ok && !bt.After(t) {
		return true
	}
	if rt, ok := e.rowIsolated[bankKey][row]; ok && !rt.After(t) {
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
	if bt, ok := e.bankIsolated[bank.BankKey()]; ok && bt.Before(t) {
		return true
	}
	return false
}

// IsRowSparedBefore reports whether the row itself was isolated (row spare
// or page offline) strictly before t, excluding whole-bank isolation — the
// predicate behind the paper's cross-row ICR, which credits only row-level
// predictions.
func (e *Engine) IsRowSparedBefore(bank hbm.BankAddress, row int, t time.Time) bool {
	rt, ok := e.rowIsolated[bank.BankKey()][row]
	return ok && rt.Before(t)
}

// UsageStats summarises consumed spare resources.
type UsageStats struct {
	RowSpares     int
	BankSpares    int
	OfflinedPages int
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
	for _, n := range e.pagesUsed {
		s.OfflinedPages += n
	}
	s.IsolatedBanks = len(e.bankIsolated)
	for _, rows := range e.rowIsolated {
		s.IsolatedRows += len(rows)
	}
	return s
}
