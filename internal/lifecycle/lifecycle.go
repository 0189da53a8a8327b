// Package lifecycle closes the online retraining loop: it watches the live
// class mix for drift away from the active model's training distribution,
// refits a candidate pipeline from the engine's own journal (self-labelled,
// no ground truth needed), installs it in the registry, shadow-scores it
// against live traffic, and promotes it through the engine's atomic swap
// point only if its isolation coverage holds up against the incumbent's.
//
// The manager is deliberately conservative: every stage can decline (not
// enough classifications, not enough labelled banks, shadow ICR regressed)
// and the incumbent keeps serving untouched. A failed or abandoned
// candidate stays installed in the registry — an operator can still promote
// it manually through the admin API.
package lifecycle

import (
	"context"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"cordial/internal/core"
	"cordial/internal/faultsim"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/obs"
	"cordial/internal/registry"
	"cordial/internal/stats"
	"cordial/internal/stream"
)

// Config configures a Manager. Engine and Registry are required.
type Config struct {
	Engine   *stream.Engine
	Registry *registry.Registry
	// Geometry is stamped into retrained models' metadata.
	Geometry hbm.Geometry
	// Train is the pipeline configuration candidates are fitted with.
	// Zero-valued fields default via core.New.
	Train core.Config

	// Interval is the drift-check (and shadow-judgement) cadence.
	// Default 30s. A drift-triggered retrain waits 4 intervals after the
	// previous one concluded (promoted or rolled back), so the live mix can
	// settle; a candidate that has not scored ShadowMinEvents within 20
	// intervals is rolled back.
	Interval time.Duration
	// DriftPValue triggers a retrain when the chi-square test of the
	// recent class mix against the active model's training mix comes in
	// below it. 0 disables automatic retraining (manual retrains and
	// promotions still work); cordial-serve's -drift-p defaults to 0.01.
	DriftPValue float64
	// DriftSample is how many recent classifications the drift test uses.
	// Default 40.
	DriftSample int
	// MinBanks is the minimum self-labelled banks needed to fit a
	// candidate. Default 20.
	MinBanks int

	// ShadowMinEvents is how much traffic the candidate must score before
	// the promotion decision. Default 200.
	ShadowMinEvents uint64
	// ICRMargin is how far the candidate's shadow ICR may fall below the
	// primary's and still be promoted; slack for small-sample noise.
	// Default 0.02.
	ICRMargin float64

	Metrics *obs.Registry
	Logger  *slog.Logger
}

// Status is a point-in-time picture of the lifecycle loop, reported by
// /statsz and the admin API.
type Status struct {
	// State is "idle" or "shadowing".
	State string `json:"state"`
	// ActiveVersion mirrors the engine's swap point.
	ActiveVersion uint64 `json:"activeVersion"`
	// CandidateVersion is the version under shadow evaluation (0 when idle).
	CandidateVersion uint64 `json:"candidateVersion,omitempty"`
	// LastDriftP is the most recent drift-test p-value (1 before any test).
	LastDriftP float64 `json:"lastDriftP"`
	// LastDriftAt is when drift last triggered a retrain.
	LastDriftAt time.Time `json:"lastDriftAt,omitempty"`
	// Retrains, Promotions and Rollbacks count concluded stages.
	Retrains   uint64 `json:"retrains"`
	Promotions uint64 `json:"promotions"`
	Rollbacks  uint64 `json:"rollbacks"`
	// LastError is the most recent stage failure (sticky until the next
	// success).
	LastError string `json:"lastError,omitempty"`
	// Shadow is the live shadow-evaluation snapshot.
	Shadow stream.ShadowStats `json:"shadow"`
}

// Manager runs the drift→retrain→shadow→promote loop.
type Manager struct {
	cfg Config

	mu         sync.Mutex
	candidate  uint64 // version under shadow evaluation; 0 = idle
	shadowFrom time.Time
	lastDriftP float64
	lastDrift  time.Time
	lastDone   time.Time // when the last retrain concluded (cooldown anchor)
	retrains   uint64
	promotions uint64
	rollbacks  uint64
	lastErr    string

	driftScore *obs.Gauge
	retrainCt  *obs.Counter
	trainDur   *obs.Histogram
	promoteCt  *obs.Counter
	rollbackCt *obs.Counter
}

// New validates the configuration and returns a manager. Run starts the
// loop; the manager's methods are safe to call whether or not Run is
// running (the admin API calls them directly).
func New(cfg Config) (*Manager, error) {
	if cfg.Engine == nil || cfg.Registry == nil {
		return nil, fmt.Errorf("lifecycle: Engine and Registry are required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 30 * time.Second
	}
	if cfg.DriftSample <= 0 {
		cfg.DriftSample = 40
	}
	if cfg.MinBanks <= 0 {
		cfg.MinBanks = 20
	}
	if cfg.ShadowMinEvents == 0 {
		cfg.ShadowMinEvents = 200
	}
	if cfg.ICRMargin == 0 {
		cfg.ICRMargin = 0.02
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	m := &Manager{cfg: cfg, lastDriftP: 1}
	if reg := cfg.Metrics; reg != nil {
		m.driftScore = reg.Gauge("cordial_drift_score",
			"p-value of the most recent class-mix drift test (1 before any test).")
		m.driftScore.Set(1)
		m.retrainCt = reg.Counter("cordial_retrains_total",
			"Candidate pipelines fitted from the journal.")
		m.trainDur = reg.Histogram("cordial_train_seconds",
			"Wall time of one candidate fit (export, label, train).", nil)
		m.promoteCt = reg.Counter("cordial_promotions_total",
			"Candidates promoted to the active model (including manual promotions).")
		m.rollbackCt = reg.Counter("cordial_rollbacks_total",
			"Candidates abandoned after shadow evaluation, plus manual rollbacks.")
	}
	return m, nil
}

// Run drives the loop until ctx is cancelled.
func (m *Manager) Run(ctx context.Context) {
	tick := m.cfg.Engine.Config().Clock.NewTicker(m.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			m.Tick()
		}
	}
}

// Tick runs one iteration of the loop: judge a running shadow evaluation,
// or check for drift and maybe start one. Exported so tests (and the
// SIGHUP-style admin path) can drive the loop without wall-clock waits.
func (m *Manager) Tick() {
	m.mu.Lock()
	candidate := m.candidate
	m.mu.Unlock()
	if candidate != 0 {
		m.judge(candidate)
		return
	}
	if p, drifted := m.driftCheck(); drifted {
		m.cfg.Logger.Info("class-mix drift detected", "p", p,
			"threshold", m.cfg.DriftPValue)
		if err := m.Retrain("drift"); err != nil {
			m.fail("retrain", err)
		}
	}
}

// driftCheck chi-square-tests the engine's recent classification mix
// against the active model's training mix. Returns the p-value and whether
// it crossed the trigger threshold.
func (m *Manager) driftCheck() (float64, bool) {
	if m.cfg.DriftPValue <= 0 {
		return 1, false
	}
	m.mu.Lock()
	inCooldown := !m.lastDone.IsZero() && m.cfg.Engine.Config().Clock.Now().Sub(m.lastDone) < 4*m.cfg.Interval
	m.mu.Unlock()
	recent, n := m.cfg.Engine.RecentClassMix(m.cfg.DriftSample)
	if n < m.cfg.DriftSample {
		return 1, false
	}
	trainMix := m.activeClassMix()
	if len(trainMix) == 0 {
		return 1, false
	}
	table := make([][]float64, 2)
	table[0] = make([]float64, len(faultsim.AllClasses))
	table[1] = make([]float64, len(faultsim.AllClasses))
	for i, class := range faultsim.AllClasses {
		table[0][i] = float64(trainMix[class])
		table[1][i] = float64(recent[class])
	}
	stat, df, err := stats.ChiSquareContingency(table)
	if err != nil {
		return 1, false
	}
	p, err := stats.ChiSquarePValue(stat, df)
	if err != nil {
		return 1, false
	}
	m.mu.Lock()
	m.lastDriftP = p
	m.mu.Unlock()
	if m.driftScore != nil {
		m.driftScore.Set(p)
	}
	return p, p < m.cfg.DriftPValue && !inCooldown
}

// activeClassMix is the training class distribution of the model new
// sessions currently bind, from its registry metadata.
func (m *Manager) activeClassMix() map[faultsim.Class]int {
	version := m.cfg.Engine.ActiveModelVersion()
	meta, ok := m.cfg.Registry.MetaOf(version)
	if !ok || meta.Model == nil {
		return nil
	}
	return meta.Model.ClassCounts()
}

// Retrain exports the journal, self-labels it, fits a candidate, installs
// it and starts its shadow evaluation. Called by the drift trigger and by
// the admin/SIGHUP path (with their own trigger tags).
func (m *Manager) Retrain(trigger string) error {
	m.mu.Lock()
	if m.candidate != 0 {
		m.mu.Unlock()
		return fmt.Errorf("lifecycle: candidate %d already under evaluation", m.candidate)
	}
	m.mu.Unlock()

	t0 := m.cfg.Engine.Config().Clock.Now()
	banks, err := m.labelledBanks()
	if err != nil {
		return err
	}
	if len(banks) < m.cfg.MinBanks {
		return fmt.Errorf("lifecycle: only %d labelled banks in the journal, need %d",
			len(banks), m.cfg.MinBanks)
	}
	pipe, err := core.New(m.cfg.Train)
	if err != nil {
		return err
	}
	if err := pipe.Fit(banks); err != nil {
		return fmt.Errorf("lifecycle: fitting candidate: %w", err)
	}
	if meta := pipe.Meta(); meta != nil {
		meta.TrainedAt = m.cfg.Engine.Config().Clock.Now().UTC()
		meta.Geometry = m.cfg.Geometry
	}
	meta, err := m.cfg.Registry.Install(pipe, trigger)
	if err != nil {
		return err
	}
	if m.retrainCt != nil {
		m.retrainCt.Inc()
	}
	if m.trainDur != nil {
		m.trainDur.Observe(m.cfg.Engine.Config().Clock.Now().Sub(t0).Seconds())
	}
	if err := m.cfg.Engine.StartShadow(meta.Version); err != nil {
		return fmt.Errorf("lifecycle: starting shadow for version %d: %w", meta.Version, err)
	}
	m.mu.Lock()
	m.candidate = meta.Version
	m.shadowFrom = m.cfg.Engine.Config().Clock.Now()
	m.lastDrift = m.shadowFrom
	m.retrains++
	m.lastErr = ""
	m.mu.Unlock()
	m.cfg.Logger.Info("candidate installed, shadow evaluation started",
		"version", meta.Version, "trigger", trigger, "banks", len(banks),
		"trainSeconds", m.cfg.Engine.Config().Clock.Now().Sub(t0).Seconds())
	return nil
}

// labelledBanks replays the engine's journal into per-bank event logs and
// self-labels every bank that has UERs.
func (m *Manager) labelledBanks() ([]*faultsim.BankFault, error) {
	events, err := m.cfg.Engine.ExportEvents(0, 0)
	if err != nil {
		return nil, fmt.Errorf("lifecycle: exporting journal: %w", err)
	}
	byBank := make(map[hbm.BankAddress][]mcelog.Event)
	order := make([]hbm.BankAddress, 0)
	for _, ev := range events {
		key := hbm.BankOf(ev.Addr)
		if _, seen := byBank[key]; !seen {
			order = append(order, key)
		}
		byBank[key] = append(byBank[key], ev)
	}
	banks := make([]*faultsim.BankFault, 0, len(order))
	for _, key := range order {
		evs := byBank[key]
		// The journal interleaves shards, so cross-bank order is arrival
		// order; within a bank, re-sort by timestamp for the labeller.
		slices.SortStableFunc(evs, func(a, b mcelog.Event) int { return a.Time.Compare(b.Time) })
		bf, err := faultsim.ObservedFault(m.cfg.Geometry, key, evs)
		if err != nil {
			continue // benign so far: nothing to label
		}
		banks = append(banks, bf)
	}
	return banks, nil
}

// judge concludes (or keeps waiting on) the running shadow evaluation.
func (m *Manager) judge(candidate uint64) {
	ss := m.cfg.Engine.ShadowStats()
	if !ss.Active || ss.Version != candidate {
		// Someone stopped or replaced the evaluation under us (manual
		// promotion does this); fold our state.
		m.mu.Lock()
		if m.candidate == candidate {
			m.candidate = 0
			m.lastDone = m.cfg.Engine.Config().Clock.Now()
		}
		m.mu.Unlock()
		return
	}
	elapsed := m.cfg.Engine.Config().Clock.Now().Sub(m.shadowStart())
	if ss.Events < m.cfg.ShadowMinEvents {
		if elapsed < m.shadowTimeout() {
			return // keep scoring
		}
		m.cfg.Logger.Warn("shadow evaluation timed out short of traffic",
			"version", candidate, "events", ss.Events, "need", m.cfg.ShadowMinEvents)
		m.concludeRollback(candidate, "timeout")
		return
	}
	primary, shadow := ss.PrimaryICR.Rate(), ss.ShadowICR.Rate()
	if ss.CandidatePanics > 0 || shadow < primary-m.cfg.ICRMargin {
		m.cfg.Logger.Info("candidate rejected by shadow evaluation",
			"version", candidate, "primaryICR", primary, "shadowICR", shadow,
			"panics", ss.CandidatePanics, "events", ss.Events)
		m.concludeRollback(candidate, "icr-regressed")
		return
	}
	if err := m.Promote(candidate); err != nil {
		m.fail("promote", err)
	}
}

func (m *Manager) shadowStart() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.shadowFrom
}

// shadowTimeout is how long a candidate may take to score ShadowMinEvents.
func (m *Manager) shadowTimeout() time.Duration { return 20 * m.cfg.Interval }

// Promote makes a version the active model: journaled engine swap first
// (so the swap's position in event order is durable), then the registry
// pointer flip (so a restart boots the same version), then shadow teardown
// and artefact pruning. Version 0 promotes the current candidate. Admin
// promotion of an arbitrary installed version uses the same path.
func (m *Manager) Promote(version uint64) error {
	m.mu.Lock()
	candidate := m.candidate
	m.mu.Unlock()
	if version == 0 {
		if candidate == 0 {
			return fmt.Errorf("lifecycle: no candidate to promote")
		}
		version = candidate
	}
	if _, err := m.cfg.Engine.SwapModel(version); err != nil {
		return err
	}
	if err := m.cfg.Registry.Activate(version); err != nil {
		// The engine already swapped; a restart would boot the old
		// version. Surface loudly — the operator must retry the activate.
		return fmt.Errorf("lifecycle: engine swapped to %d but registry activation failed: %w", version, err)
	}
	var final stream.ShadowStats
	if version == candidate && candidate != 0 {
		final = m.cfg.Engine.StopShadow()
	}
	m.mu.Lock()
	if m.candidate == candidate {
		m.candidate = 0
	}
	m.lastDone = m.cfg.Engine.Config().Clock.Now()
	m.promotions++
	m.lastErr = ""
	m.mu.Unlock()
	if m.promoteCt != nil {
		m.promoteCt.Inc()
	}
	if removed, err := m.cfg.Registry.Prune(m.cfg.Engine.NeededVersions()); err != nil {
		m.cfg.Logger.Warn("artefact prune failed", "err", err)
	} else if removed > 0 {
		m.cfg.Logger.Info("artefacts pruned", "removed", removed)
	}
	m.cfg.Logger.Info("model promoted", "version", version,
		"shadowEvents", final.Events, "shadowICR", final.ShadowICR.Rate(),
		"primaryICR", final.PrimaryICR.Rate())
	return nil
}

// Rollback abandons the current candidate (if one is shadowing) or, when
// idle, re-activates the highest installed version below the active one —
// the admin "undo the last promotion" lever. The engine swap and registry
// pointer move together, same as promotion.
func (m *Manager) Rollback() error {
	m.mu.Lock()
	candidate := m.candidate
	m.mu.Unlock()
	if candidate != 0 {
		m.concludeRollback(candidate, "manual")
		return nil
	}
	active := m.cfg.Engine.ActiveModelVersion()
	var prev uint64
	for _, meta := range m.cfg.Registry.Versions() {
		if meta.Version < active && meta.Version > prev {
			prev = meta.Version
		}
	}
	if prev == 0 {
		return fmt.Errorf("lifecycle: no version below %d to roll back to", active)
	}
	if _, err := m.cfg.Engine.SwapModel(prev); err != nil {
		return err
	}
	if err := m.cfg.Registry.Activate(prev); err != nil {
		return fmt.Errorf("lifecycle: engine swapped to %d but registry activation failed: %w", prev, err)
	}
	m.mu.Lock()
	m.rollbacks++
	m.lastDone = m.cfg.Engine.Config().Clock.Now()
	m.lastErr = ""
	m.mu.Unlock()
	if m.rollbackCt != nil {
		m.rollbackCt.Inc()
	}
	m.cfg.Logger.Info("model rolled back", "from", active, "to", prev)
	return nil
}

// concludeRollback tears down a candidate's shadow evaluation without
// promoting it. The artefact stays installed for manual inspection or
// promotion.
func (m *Manager) concludeRollback(candidate uint64, reason string) {
	final := m.cfg.Engine.StopShadow()
	m.mu.Lock()
	if m.candidate == candidate {
		m.candidate = 0
	}
	m.lastDone = m.cfg.Engine.Config().Clock.Now()
	m.rollbacks++
	m.mu.Unlock()
	if m.rollbackCt != nil {
		m.rollbackCt.Inc()
	}
	m.cfg.Logger.Info("candidate rolled back", "version", candidate,
		"reason", reason, "shadowEvents", final.Events,
		"shadowICR", final.ShadowICR.Rate(), "primaryICR", final.PrimaryICR.Rate())
}

func (m *Manager) fail(stage string, err error) {
	m.mu.Lock()
	m.lastErr = fmt.Sprintf("%s: %v", stage, err)
	m.mu.Unlock()
	m.cfg.Logger.Error("lifecycle stage failed", "stage", stage, "err", err)
}

// Status reports the loop's current state.
func (m *Manager) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Status{
		State:            "idle",
		ActiveVersion:    m.cfg.Engine.ActiveModelVersion(),
		CandidateVersion: m.candidate,
		LastDriftP:       m.lastDriftP,
		LastDriftAt:      m.lastDrift,
		Retrains:         m.retrains,
		Promotions:       m.promotions,
		Rollbacks:        m.rollbacks,
		LastError:        m.lastErr,
		Shadow:           m.cfg.Engine.ShadowStats(),
	}
	if m.candidate != 0 {
		st.State = "shadowing"
	}
	return st
}
