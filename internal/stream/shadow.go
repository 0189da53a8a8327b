package stream

import (
	"fmt"
	"sync/atomic"
	"time"

	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/features"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/metrics"
	"cordial/internal/rowset"
)

// Shadow evaluation scores a candidate model against live traffic without
// letting it touch the action stream. While a shadow is active, every
// NEWLY born bank gets a twin session on the candidate; both twins see the
// bank's full event history from its first event, so their verdicts are
// comparable like-for-like. A bank born stored gets its twin when it
// promotes, resumed from the same chain as its own session: until then
// neither side decides, and each stored event counts as one the twin folded.
// Banks born before the shadow are left out — feeding a candidate the tail of a
// history it never saw the head of would measure recovery behaviour, not
// model quality.
//
// The candidate's decisions are folded into per-run counters only:
// per-event verdict agreement, per-side action counts, and a per-side ICR
// proxy (UER events landing on rows that side had already isolated). The
// lifecycle manager promotes the candidate only if its proxy ICR holds up
// against the primary's over the shadow window.
//
// Shadow state is deliberately NOT snapshotted and does not survive a
// restart: an interrupted evaluation restarts from scratch, which is
// always safe (just slower) and keeps the crash≡no-crash byte-equivalence
// of the primary state untouched.

// shadowEval is one candidate evaluation. The counters are atomics because
// every shard consumer updates them concurrently; gen distinguishes this
// run's per-session twins from a previous run's stale ones.
type shadowEval struct {
	gen      uint64
	version  uint64
	strategy core.Strategy
	// quiet is strategy as a core.QuietStrategy, nil when it is none: banks
	// born under the evaluation then take the heap form from birth.
	quiet     core.QuietStrategy
	startedAt time.Time

	banks       atomic.Int64
	events      atomic.Uint64
	uerEvents   atomic.Uint64
	decisions   atomic.Uint64 // events where either side decided something
	agreements  atomic.Uint64 // events where both sides decided identically
	primActions atomic.Uint64
	shadActions atomic.Uint64
	primCovered atomic.Uint64 // UERs on rows the primary had isolated
	shadCovered atomic.Uint64
	panics      atomic.Uint64 // candidate panics (that bank's twin dropped)
}

// ShadowStats is a point-in-time picture of the current (or just-stopped)
// shadow evaluation.
type ShadowStats struct {
	// Active reports an evaluation in progress.
	Active bool `json:"active"`
	// Version is the candidate model version under evaluation.
	Version uint64 `json:"version,omitempty"`
	// Since is when the evaluation started.
	Since time.Time `json:"since,omitzero"`
	// Banks is how many banks acquired shadow twins.
	Banks int `json:"banks"`
	// Events and UEREvents count traffic folded into twins.
	Events    uint64 `json:"events"`
	UEREvents uint64 `json:"uerEvents"`
	// Decisions counts events where at least one side acted; Agreements
	// counts those where both sides acted identically (same spare-bank
	// verdict, same fresh rows).
	Decisions  uint64 `json:"decisions"`
	Agreements uint64 `json:"agreements"`
	// PrimaryActions / ShadowActions count per-side action emissions
	// (shadow ones are virtual — never delivered anywhere).
	PrimaryActions uint64 `json:"primaryActions"`
	ShadowActions  uint64 `json:"shadowActions"`
	// PrimaryICR / ShadowICR are the per-side isolation-coverage proxies:
	// of the UER events seen by shadowed banks, how many landed on a row
	// (or bank) that side had already isolated.
	PrimaryICR metrics.ICR `json:"primaryICR"`
	ShadowICR  metrics.ICR `json:"shadowICR"`
	// CandidatePanics counts twins dropped after the candidate panicked.
	CandidatePanics uint64 `json:"candidatePanics"`
}

func (se *shadowEval) stats(active bool) ShadowStats {
	uer := se.uerEvents.Load()
	return ShadowStats{
		Active:          active,
		Version:         se.version,
		Since:           se.startedAt,
		Banks:           int(se.banks.Load()),
		Events:          se.events.Load(),
		UEREvents:       uer,
		Decisions:       se.decisions.Load(),
		Agreements:      se.agreements.Load(),
		PrimaryActions:  se.primActions.Load(),
		ShadowActions:   se.shadActions.Load(),
		PrimaryICR:      metrics.ICR{Covered: int(se.primCovered.Load()), Total: int(uer)},
		ShadowICR:       metrics.ICR{Covered: int(se.shadCovered.Load()), Total: int(uer)},
		CandidatePanics: se.panics.Load(),
	}
}

// StartShadow begins evaluating a model version as the shadow candidate,
// replacing any evaluation already running. Only one shadow runs at a
// time.
func (e *Engine) StartShadow(version uint64) error {
	strat, err := e.cfg.Models.ModelByVersion(version)
	if err != nil {
		return err
	}
	if strat == nil {
		return fmt.Errorf("stream: model source returned no strategy for shadow version %d", version)
	}
	se := &shadowEval{
		gen:       e.shadowGen.Add(1),
		version:   version,
		strategy:  strat,
		startedAt: e.cfg.Clock.Now().UTC(),
	}
	se.quiet, _ = strat.(core.QuietStrategy)
	e.shadow.Store(se)
	e.metrics.shadowStarts.Inc()
	e.cfg.Logger.Info("shadow evaluation started", "version", version)
	return nil
}

// StopShadow ends the current evaluation and returns its final stats
// (Active=false in both the return and subsequent ShadowStats calls).
// Stale twins left on sessions are swept so their memory is released.
func (e *Engine) StopShadow() ShadowStats {
	se := e.loadShadow()
	e.shadow.Store((*shadowEval)(nil))
	if se == nil {
		return ShadowStats{}
	}
	for _, s := range e.shards {
		s.mu.Lock()
		s.store.eachSession(func(bs *bankSession) { // a stored bank has no twin
			if bs.shadow != nil && bs.shadow.gen == se.gen {
				bs.shadow = nil
			}
		})
		s.mu.Unlock()
	}
	e.cfg.Logger.Info("shadow evaluation stopped", "version", se.version,
		"events", se.events.Load(), "agreements", se.agreements.Load())
	return se.stats(false)
}

// ShadowStats reports the in-progress evaluation (zero-value, Active
// false, when none).
func (e *Engine) ShadowStats() ShadowStats {
	se := e.loadShadow()
	if se == nil {
		return ShadowStats{}
	}
	return se.stats(true)
}

func (e *Engine) loadShadow() *shadowEval {
	v, _ := e.shadow.Load().(*shadowEval)
	return v
}

// shadowSession is the candidate-side twin of one bank session. It mirrors
// the engine's action-dedupe bookkeeping so the candidate's virtual action
// stream is derived by exactly the rules the primary's real one is.
type shadowSession struct {
	gen        uint64
	sess       core.Session
	spared     rowset.Runs
	bankSpared bool
	dead       bool // candidate panicked on this bank; twin retired
}

// newShadowSession creates the twin of a bank born under the evaluation: the
// candidate's session, resumed from log — the bank's observations, when it was
// born stored and is promoting — under a core.QuietStrategy candidate. A
// candidate panic leaves the twin retired.
func (se *shadowEval) newShadowSession(bank hbm.BankAddress, log []features.Obs) (ss *shadowSession) {
	ss = &shadowSession{gen: se.gen}
	defer func() {
		if r := recover(); r != nil {
			ss.dead = true
			se.panics.Add(1)
		}
	}()
	if se.quiet != nil {
		ss.sess = se.quiet.ResumeSession(bank, log)
	} else {
		ss.sess = se.strategy.NewSession(bank)
	}
	return ss
}

// foldShadow feeds one event to a bank's twin and scores both sides
// against each other. The primary's behaviour on the SAME event arrives
// pre-digested: primCoveredUER (a UER that landed on a row/bank the
// primary had ALREADY isolated — coverage is judged before the fold,
// mirroring how a real spare must precede the failure it absorbs),
// primSpareBank (the primary emitted a bank-spare on this event) and
// primFresh (how many newly isolated rows its dedupe admitted). Runs
// under the shard lock on the consumer goroutine, after the primary's
// actions are derived, so the twin decides into the shard's decision buffer
// too. A candidate panic retires the twin and never propagates — apart from
// timing, the primary path must be indistinguishable from an un-shadowed run.
func (se *shadowEval) foldShadow(ss *shadowSession, ev mcelog.Event, buf *core.DecisionBuffer,
	primCoveredUER, primSpareBank bool, primFresh int) {
	if ss.dead {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			ss.dead = true
			se.panics.Add(1)
		}
	}()
	se.events.Add(1)
	if ev.Class == ecc.ClassUER {
		se.uerEvents.Add(1)
		if primCoveredUER {
			se.primCovered.Add(1)
		}
		if ss.bankSpared || ss.spared.Has(ev.Addr.Row) {
			se.shadCovered.Add(1)
		}
	}

	d := ss.sess.Decide(ev, buf)

	shadSpareBank := false
	shadFresh := 0
	if d.SpareBank && !ss.bankSpared {
		ss.bankSpared = true
		shadSpareBank = true
		se.shadActions.Add(1)
	}
	for _, r := range d.IsolateRows {
		if ss.spared.Add(r) {
			shadFresh++
		}
	}
	if shadFresh > 0 {
		se.shadActions.Add(1)
	}
	primDecided := primSpareBank || primFresh > 0
	shadDecided := shadSpareBank || shadFresh > 0
	if primDecided {
		se.primActions.Add(1)
	}
	if primDecided || shadDecided {
		se.decisions.Add(1)
		if primSpareBank == shadSpareBank && primFresh == shadFresh {
			se.agreements.Add(1)
		}
	}
}
