package stream

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"cordial/internal/core"
	"cordial/internal/faultsim"
	"cordial/internal/mcelog"
)

// ModelSource resolves prediction strategies by version. It is the seam
// between the engine and model ownership: the engine never holds "the"
// strategy, it asks the source which version is active when a session is
// born and resolves pinned versions again during recovery. The registry
// package implements this over its artefact store; StaticModels adapts a
// single fixed strategy (the pre-registry configuration) to the same shape.
type ModelSource interface {
	// ActiveModel returns the strategy new sessions should bind and its
	// version number. A nil strategy means the source has nothing to serve
	// (the engine refuses to start in that case).
	ActiveModel() (core.Strategy, uint64)
	// ModelByVersion resolves a specific version, for rebinding sessions
	// that were pinned to it before a restart or handoff.
	ModelByVersion(version uint64) (core.Strategy, error)
}

// staticVersion is the version a StaticModels source reports.
const staticVersion = 1

// staticSource adapts one fixed strategy to the ModelSource shape.
type staticSource struct {
	strategy core.Strategy
}

// StaticModels wraps a single strategy as a ModelSource with version 1.
// ModelByVersion is deliberately tolerant — it returns the strategy for
// ANY version — so snapshots taken under a registry-backed source still
// recover when an operator points the daemon at a plain -models file, and
// cluster handoffs between mixed configurations keep working. The version
// numbers in that case are provenance labels, not distinct models.
func StaticModels(s core.Strategy) ModelSource {
	return &staticSource{strategy: s}
}

func (s *staticSource) ActiveModel() (core.Strategy, uint64) { return s.strategy, staticVersion }

func (s *staticSource) ModelByVersion(uint64) (core.Strategy, error) { return s.strategy, nil }

// modelEpoch is one reign of one model version: from journal position
// sinceLSN (exclusive — the LSN of the swap record itself) until the next
// epoch begins. Sessions created at LSN L bind the last epoch with
// sinceLSN < L, so replay recreates each session under the same version it
// was born under.
type modelEpoch struct {
	version  uint64
	sinceLSN uint64
	strategy core.Strategy
}

// epochList returns the current epoch table (immutable; installEpoch
// replaces the slice wholesale).
func (e *Engine) epochList() []modelEpoch {
	return e.epochs.Load().([]modelEpoch)
}

// activeEpoch is the newest epoch: what a bank born without a journal
// position binds, and every bank an import's suffix gives birth to.
func (e *Engine) activeEpoch() modelEpoch {
	eps := e.epochList()
	return eps[len(eps)-1]
}

// epochAt resolves, in the epoch table eps, the epoch a bank born at journal
// position lsn binds: the newest for lsn 0 (no journal), else the last epoch
// that began strictly before it. Positions at or before the first epoch's
// start (a snapshot-seeded epoch whose swap record was truncated) fall back to
// the first epoch.
func epochAt(eps []modelEpoch, lsn uint64) modelEpoch {
	if lsn == 0 {
		return eps[len(eps)-1]
	}
	for i := len(eps) - 1; i >= 0; i-- {
		if eps[i].sinceLSN < lsn {
			return eps[i]
		}
	}
	return eps[0]
}

// installEpoch inserts one epoch copy-on-write, keeping the table sorted
// by sinceLSN. Re-installing an epoch already present (a replayed swap
// record the snapshot header also seeded) is a no-op, which makes replay
// idempotent; a replayed swap OLDER than the seeded header epoch slots in
// before it, so epochAt stays correct for sessions born between the two.
// Callers serialise: SwapModel under snapMu, recovery before the
// consumers start.
func (e *Engine) installEpoch(ep modelEpoch) {
	old := e.epochList()
	idx := len(old)
	for i, x := range old {
		if x.sinceLSN == ep.sinceLSN && x.version == ep.version {
			return
		}
		if idx == len(old) && x.sinceLSN > ep.sinceLSN {
			idx = i
		}
	}
	next := make([]modelEpoch, 0, len(old)+1)
	next = append(next, old[:idx]...)
	next = append(next, ep)
	next = append(next, old[idx:]...)
	e.epochs.Store(next)
}

// seedEpochs replaces the whole table (snapshot-header recovery).
func (e *Engine) seedEpochs(ep modelEpoch) {
	e.epochs.Store([]modelEpoch{ep})
}

// strategyFor resolves a session's pinned version. Version 0 is the
// pre-versioning snapshot encoding ("whatever was active at boot") and
// resolves to the boot epoch.
func (e *Engine) strategyFor(version uint64) (core.Strategy, error) {
	if version == 0 {
		return e.epochList()[0].strategy, nil
	}
	for _, ep := range e.epochList() {
		if ep.version == version {
			return ep.strategy, nil
		}
	}
	return e.cfg.Models.ModelByVersion(version)
}

// resolveDurable is strategyFor for paths that must checkpoint the session
// afterwards (recovery, handoff import).
func (e *Engine) resolveDurable(version uint64) (core.DurableStrategy, error) {
	strat, err := e.strategyFor(version)
	if err != nil {
		return nil, err
	}
	ds, ok := strat.(core.DurableStrategy)
	if !ok {
		return nil, fmt.Errorf("stream: model version %d strategy %T cannot restore sessions", version, strat)
	}
	return ds, nil
}

// ---- swap records ----------------------------------------------------------

// A model swap is journaled like an event: a fixed 12-byte record, length-
// discriminated from the 19-byte event records (mcelog.WireRecordSize)
// sharing the journal. Replay re-installs the epoch at the same position,
// so sessions created after the swap rebind the same version they bound
// live.
const (
	swapRecordMagic = "CSWP"
	swapRecordSize  = 12
)

func encodeSwapRecord(version uint64) []byte {
	return binary.LittleEndian.AppendUint64([]byte(swapRecordMagic), version)
}

// decodeJournalRecord decodes one journal payload: a model swap (isSwap,
// with the version swapped to) or an event. It is the one reader of journal
// bytes — boot replay, ExportEvents (the retraining feed) and
// ImportSessions, whose suffix arrives from a peer as JSON with no checksum
// — so events go through the checked record decoder: a class byte no
// collector logs, or address bits outside the layout (which the unchecked
// unpack would alias onto another bank), is an error, never a session.
// Replaying our own journal is unaffected: a packed in-range address has no
// stray bits. An event comes back as its record, which is what the engine
// queues.
func decodeJournalRecord(p []byte) (rec mcelog.Record, version uint64, isSwap bool, err error) {
	if len(p) == swapRecordSize && string(p[:4]) == swapRecordMagic {
		return mcelog.Record{}, binary.LittleEndian.Uint64(p[4:]), true, nil
	}
	rec, err = mcelog.ParseRecordChecked(p)
	return rec, 0, false, err
}

// SwapModel atomically makes a model version the one new sessions bind.
// Existing sessions keep their pinned version — a swap never rebinds live
// per-bank state, so verdict streams are never re-ordered mid-history.
//
// Ordering: the swap takes the snapshot mutex and then every shard's
// ingest mutex (ascending, the batch-ingest order), so (a) no event can be
// journaled concurrently — the swap record lands at a single well-defined
// position in every shard's intake order, and (b) no checkpoint can be
// encoded concurrently — a snapshot either fully precedes the swap (its
// header names the old version, the swap record is past its floor and
// replays) or fully follows it (its header names the new version). Without
// this exclusion a checkpoint could record the old active version while
// its retention floor advanced past the swap record, erasing the swap.
//
// Returns the journal position of the swap record (0 without durability).
func (e *Engine) SwapModel(version uint64) (uint64, error) {
	strat, err := e.cfg.Models.ModelByVersion(version)
	if err != nil {
		return 0, err
	}
	if strat == nil {
		return 0, fmt.Errorf("stream: model source returned no strategy for version %d", version)
	}
	if e.wal != nil {
		if _, ok := strat.(core.DurableStrategy); !ok {
			return 0, fmt.Errorf("stream: model version %d strategy %T cannot be used with durability", version, strat)
		}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return 0, ErrClosed
	}
	t0 := time.Now()
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	for _, s := range e.shards {
		s.ingestMu.Lock()
	}
	defer func() {
		for _, s := range e.shards {
			s.ingestMu.Unlock()
		}
	}()
	var since uint64
	if e.wal != nil {
		lsn, err := e.wal.Append(encodeSwapRecord(version))
		if err != nil {
			e.walAppendErrs.Add(1)
			e.lastAppendErr.Store(err.Error())
			return 0, fmt.Errorf("stream: journaling model swap: %w", err)
		}
		since = lsn
		e.installEpoch(modelEpoch{version: version, sinceLSN: since, strategy: strat})
	} else {
		// No journal, no replay: the table only needs to name the active
		// model, and repeated swaps (including rollbacks to an earlier
		// version) must not accumulate identical zero-LSN entries.
		e.seedEpochs(modelEpoch{version: version, strategy: strat})
	}
	e.metrics.modelSwaps.Inc()
	e.metrics.swapPauseDur.Observe(time.Since(t0).Seconds())
	e.cfg.Logger.Info("model swapped", "version", version, "lsn", since)
	return since, nil
}

// ActiveModelVersion returns the version new sessions currently bind.
func (e *Engine) ActiveModelVersion() uint64 {
	return e.activeEpoch().version
}

// modelSize returns the tree nodes and in-memory bytes of the models behind
// the active strategy, or behind the shadow candidate: zero for an empty slot
// or a strategy without models. A strategy sizes its models once, when they
// are installed, so a scrape takes no lock here.
func (e *Engine) modelSize(shadow bool) (nodes, bytes int) {
	strat := e.activeEpoch().strategy
	if shadow {
		se := e.loadShadow()
		if se == nil {
			return 0, 0
		}
		strat = se.strategy
	}
	if sized, ok := strat.(interface{ ModelSize() (nodes, bytes int) }); ok {
		return sized.ModelSize()
	}
	return 0, 0
}

// PinnedVersionFloor returns the lowest model version any live session is
// pinned to (0 when no sessions exist). Registry pruning uses it to avoid
// deleting artefacts a running session might still need to recover under.
func (e *Engine) PinnedVersionFloor() uint64 {
	var floor uint64
	for version := range e.sessionsByVersion() {
		if version != 0 && (floor == 0 || version < floor) {
			floor = version
		}
	}
	return floor
}

// ExportEvents decodes the journal's event records in [from, to) (the
// whole journal when to is 0), skipping swap records — the feed the online
// trainer retrains from.
func (e *Engine) ExportEvents(from, to uint64) ([]mcelog.Event, error) {
	if e.wal == nil {
		return nil, ErrNotDurable
	}
	var out []mcelog.Event
	err := e.wal.Replay(func(lsn uint64, payload []byte) error {
		if lsn < from || (to != 0 && lsn >= to) {
			return nil
		}
		r, _, isSwap, err := decodeJournalRecord(payload)
		if err != nil {
			return fmt.Errorf("stream: exporting journal record %d: %w", lsn, err)
		}
		if !isSwap {
			out = append(out, r.Event())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ---- live class mix --------------------------------------------------------

// RecentClassMix is the drift detector's live sample: the n most recently
// active UER banks, each labelled SPATIALLY from the UER rows its session
// has observed (faultsim.LabelPattern), and the resulting class counts.
// Spatial self-labels are deliberately model-independent — a drift test fed
// the classifier's own predictions would see phantom drift at every model
// swap and would inherit the incumbent's biases — and they are directly
// comparable to the active model's training ClassMix, which comes from the
// same labelling geometry.
func (e *Engine) RecentClassMix(n int) (map[faultsim.Class]int, int) {
	type cand struct {
		last  int64
		class faultsim.Class
	}
	var cands []cand
	for _, s := range e.shards {
		s.mu.Lock()
		s.store.eachSession(func(bs *bankSession) { // a stored bank has no UER row
			n, _ := bs.rowCounts()
			if n == 0 {
				return
			}
			rows := make([]int, 0, n)
			for _, m := range bs.rows {
				if m.uer {
					rows = append(rows, int(m.row))
				}
			}
			p := faultsim.LabelPattern(e.cfg.Geometry, rows, nil)
			cands = append(cands, cand{last: bs.lastEvent, class: faultsim.ClassOf(p)})
		})
		s.mu.Unlock()
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].last > cands[j].last })
	if n < len(cands) {
		cands = cands[:n]
	}
	out := make(map[faultsim.Class]int, len(faultsim.AllClasses))
	for _, c := range cands {
		out[c.class]++
	}
	return out, len(cands)
}
