package stream

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"time"

	"cordial/internal/faultsim"
	"cordial/internal/hbm"
	"cordial/internal/obs"
)

// The engine's reporting surface. Every number here is read from an obs
// instrument or a shard's atomic totals, so Stats and ReadyReasons — and with
// them /statsz, /readyz and a /metrics scrape — take neither a shard's mu nor
// the engine's snapMu: a reader never stalls a consumer or waits out a
// snapshot; the action backlog takes the action queue's lock, held by no one
// waiting for a reader. Each value is consistent on its own; no two are read
// at one instant. Only Session and Sessions lock a shard.

// LatencySnapshot summarises a stage's samples (obs.Stage) at one instant,
// over the engine's lifetime. Count, Mean and Max are exact over the samples;
// the quantiles are the
// bucket-interpolated estimates histogram_quantile gives over the same
// /metrics series (obs.Histogram.Quantile) — they resolve to a bucket of the
// 1-2.5-5 ladder — capped at Max, which the scrape side cannot see.
type LatencySnapshot struct {
	// Count is the number of samples: ⌈n/obs.StageEvery⌉ of the stage's n
	// occurrences. The exact counts are Ingested and Processed.
	Count uint64
	// Mean is the lifetime average.
	Mean time.Duration
	// P50, P90 and P99 are lifetime quantile estimates.
	P50, P90, P99 time.Duration
	// Max is the lifetime maximum.
	Max time.Duration
}

// latencySnapshot reads a histogram of seconds.
func latencySnapshot(h *obs.Histogram) LatencySnapshot {
	dur := func(seconds float64) time.Duration { return time.Duration(math.Round(seconds * 1e9)) }
	s := LatencySnapshot{Count: h.Count(), Max: dur(h.Max())}
	if s.Count == 0 {
		return s
	}
	s.Mean = dur(h.Sum() / float64(s.Count))
	quantile := func(q float64) time.Duration { v, _ := h.Quantile(q); return min(dur(v), s.Max) }
	s.P50, s.P90, s.P99 = quantile(0.50), quantile(0.90), quantile(0.99)
	return s
}

// MarshalJSON renders the durations as strings ("1.5µs"), /statsz's shape.
func (l LatencySnapshot) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Count uint64 `json:"count"`
		Mean  string `json:"mean"`
		P50   string `json:"p50"`
		P90   string `json:"p90"`
		P99   string `json:"p99"`
		Max   string `json:"max"`
	}{l.Count, l.Mean.String(), l.P50.String(), l.P90.String(), l.P99.String(), l.Max.String()})
}

// SessionStats is a point-in-time snapshot of one bank's session, for
// inspection endpoints and operator tooling.
type SessionStats struct {
	// Bank is the session's bank address.
	Bank hbm.BankAddress
	// Events counts all events routed to the bank.
	Events int
	// UEREvents counts UER-class events.
	UEREvents int
	// DistinctUERRows counts distinct rows with at least one UER.
	DistinctUERRows int
	// Classified reports whether the pattern stage has fired.
	Classified bool
	// Class is the assigned failure class (valid when Classified).
	Class faultsim.Class
	// BankSpared reports whether a bank-spare action was emitted.
	BankSpared bool
	// RowsIsolated counts distinct rows isolated by emitted actions.
	RowsIsolated int
	// Actions counts actions emitted for the bank.
	Actions int
	// FirstEvent and LastEvent bound the session's observed window.
	FirstEvent, LastEvent time.Time
	// StateBytes approximates the resident bytes of the session's
	// incremental feature state; zero once released. The state holds no
	// event buffer, so this is bounded by the bank's distinct error rows,
	// not by Events.
	StateBytes int
	// StateRows is the tracked-row entry count of the feature state (the
	// only part of it that grows at all).
	StateRows int
	// StateReleased reports that the session dropped its feature state
	// after a terminal decision (bank spared).
	StateReleased bool
	// StateDeferred reports a bank held in its shard's store in the stored
	// form: no UER yet and at most core.QuietLogMax events, kept as the
	// observations themselves (StateBytes is 16 per observation, StateRows
	// zero) with no session and no feature state.
	StateDeferred bool
	// ModelVersion is the model version this session is pinned to: the
	// active version when the session was created. A swap never rebinds a
	// live session, so during a mixed-version window this differs from the
	// engine's active version.
	ModelVersion uint64
	// Degraded reports that an event for this bank panicked during
	// processing: the event was quarantined and the session no longer
	// feeds events to its strategy session (its state may be inconsistent).
	Degraded bool
}

// EngineStats is a point-in-time snapshot of the whole engine. Its JSON
// encoding is the engine's part of GET /statsz.
type EngineStats struct {
	// Uptime is the time since New (/statsz renders it as a string).
	Uptime time.Duration `json:"-"`
	// Ingested counts events accepted by Ingest (enqueued to a shard).
	Ingested uint64 `json:"ingested"`
	// Dropped counts events shed at ingest under IngestDrop.
	Dropped uint64 `json:"dropped"`
	// Processed counts events fully run through a session.
	Processed uint64 `json:"processed"`
	// ActionsEmitted counts actions delivered to the output channel.
	ActionsEmitted uint64 `json:"actionsEmitted"`
	// ActionsDropped counts actions evicted at the action buffer's bound.
	ActionsDropped uint64 `json:"actionsDropped"`
	// ActionsQueued counts actions emitted and not yet received or evicted.
	ActionsQueued int `json:"actionsQueued"`
	// SessionsLive is the number of live per-bank sessions.
	SessionsLive int `json:"sessionsLive"`
	// Shards is the configured shard count.
	Shards int `json:"shards"`
	// IngestRate is accepted events per second since New.
	IngestRate float64 `json:"ingestRatePerSec"`
	// QueueDepths is the current per-shard input queue occupancy.
	QueueDepths []int `json:"queueDepths"`
	// IngestWait is the queue_wait stage: IngestBatch pushing one shard's
	// group onto its queue (the backpressure signal).
	IngestWait LatencySnapshot `json:"ingestWaitLatency"`
	// Process is the fold stage: one live event's quiet append, or its
	// session's decision (feature extraction + model inference).
	Process LatencySnapshot `json:"processLatency"`
	// FeatureStateBytes approximates the resident bytes of all live
	// sessions' incremental feature state. Each session's state is bounded
	// by its bank's distinct error rows (never by event count), so this is
	// the operator-facing proof of the bounded-memory claim.
	FeatureStateBytes int64 `json:"featureStateBytes"`
	// FeatureStateRows is the total tracked-row entries across live
	// sessions' feature states.
	FeatureStateRows int64 `json:"featureStateRows"`
	// SessionsReleased counts sessions that dropped their feature state
	// after a terminal decision (bank spared).
	SessionsReleased int `json:"sessionsReleased"`
	// SessionsQuiet counts the banks held in the stored form
	// (SessionStats.StateDeferred): no UER yet, observations in the store
	// instead of a session.
	SessionsQuiet int `json:"sessionsQuiet"`
	// ShardStateBytes is the per-shard breakdown of FeatureStateBytes.
	ShardStateBytes []int64 `json:"shardFeatureStateBytes"`
	// Quarantined counts events whose processing panicked; each was logged
	// to the dead-letter file (when configured) and its session degraded.
	Quarantined uint64 `json:"quarantined"`
	// SessionsDegraded is the number of sessions in the degraded state.
	SessionsDegraded int `json:"sessionsDegraded"`
	// WALEnabled reports whether the durability layer is active.
	WALEnabled bool `json:"walEnabled"`
	// WALAppended counts records journaled since this process opened the
	// WAL; WALSegments and WALNextLSN describe the journal itself.
	WALAppended uint64 `json:"walAppended,omitempty"`
	WALSegments int    `json:"walSegments,omitempty"`
	WALNextLSN  uint64 `json:"walNextLSN,omitempty"`
	// LastSnapshotSeq is the sequence of the most recent snapshot written
	// or recovered from (zero when none).
	LastSnapshotSeq uint64 `json:"lastSnapshotSeq,omitempty"`
	// RecoveredSessions and RecoveredEvents describe the boot-time
	// recovery: sessions restored from the snapshot and WAL records
	// replayed (including ones skipped as already applied).
	RecoveredSessions int    `json:"recoveredSessions,omitempty"`
	RecoveredEvents   uint64 `json:"recoveredEvents,omitempty"`
	// RetentionErrors counts failed post-snapshot retention steps (journal
	// truncation or snapshot pruning). Non-zero means disk usage is growing
	// past the configured retention until a later snapshot succeeds.
	RetentionErrors uint64 `json:"retentionErrors"`
	// WALAppendErrors counts Ingest calls that failed to journal their
	// event; LastWALAppendError is the most recent failure's message
	// (empty once an append succeeds again).
	WALAppendErrors    uint64 `json:"walAppendErrors"`
	LastWALAppendError string `json:"lastWALAppendError,omitempty"`
	// ActiveModelVersion is the model version new sessions currently bind,
	// ModelNodes and ModelBytes the tree nodes and in-memory bytes of its
	// models; ModelSwaps counts SwapModel calls that took effect since boot.
	ActiveModelVersion uint64 `json:"activeModelVersion"`
	ModelNodes         int    `json:"modelNodes"`
	ModelBytes         int    `json:"modelBytes"`
	ModelSwaps         uint64 `json:"modelSwaps"`
	// SessionsByModelVersion counts live sessions per pinned model version:
	// after a swap, how much of the fleet still rides the old model.
	SessionsByModelVersion map[uint64]int `json:"sessionsByModelVersion"`
	// Shadow describes the in-progress shadow evaluation (Active false
	// when none is running).
	Shadow ShadowStats `json:"shadow"`
}

// Sessions snapshots every live session's stats, sorted by bank key: the
// full walk, under each shard's lock in turn. Nothing on the stats path calls
// it; it is the reference the totals are checked against.
func (e *Engine) Sessions() []SessionStats {
	type keyed struct {
		key uint64
		st  SessionStats
	}
	var all []keyed
	for _, s := range e.shards {
		s.mu.Lock()
		s.store.each(func(sl *slot) {
			v := s.view(sl)
			all = append(all, keyed{sl.key, v.stats(s.layout.bank(sl.key))})
		})
		s.mu.Unlock()
	}
	// Sorted by the stored key: re-deriving it from the address is a
	// twelve-field repack per comparison.
	slices.SortFunc(all, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
	out := make([]SessionStats, len(all))
	for i := range all {
		out[i] = all[i].st
	}
	return out
}

// total sums one of the shards' running totals.
func (e *Engine) total(t total) (n int64) {
	for _, s := range e.shards {
		n += s.totals.n[t].Load()
	}
	return n
}

// sessionsByVersion counts live sessions per pinned model version.
func (e *Engine) sessionsByVersion() map[uint64]int {
	out := make(map[uint64]int)
	for _, s := range e.shards {
		for _, vc := range s.totals.versions() {
			if n := vc.n.Load(); n > 0 {
				out[vc.version] += int(n)
			}
		}
	}
	return out
}

// Stats returns a point-in-time snapshot of the engine's counters, queue
// depths and latency distributions, read back from the obs instruments and
// the shard totals — the same data GET /metrics renders.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		Uptime:                 e.cfg.Clock.Now().Sub(e.start),
		Ingested:               e.metrics.ingested.Value(),
		ActionsEmitted:         e.metrics.actionsEmitted.Value(),
		ActionsDropped:         e.metrics.actionsDropped.Value(),
		ActionsQueued:          e.actions.queued(),
		Shards:                 len(e.shards),
		QueueDepths:            make([]int, len(e.shards)),
		ShardStateBytes:        make([]int64, len(e.shards)),
		IngestWait:             latencySnapshot(e.metrics.queueWait.Histogram),
		Process:                latencySnapshot(e.metrics.fold.Histogram),
		SessionsLive:           int(e.total(totalSessions)),
		FeatureStateRows:       e.total(totalStateRows),
		SessionsReleased:       int(e.total(totalReleased)),
		SessionsQuiet:          int(e.total(totalQuiet)),
		SessionsDegraded:       int(e.total(totalDegraded)),
		SessionsByModelVersion: e.sessionsByVersion(),
	}
	for i, s := range e.shards {
		st.Processed += s.processed.Value()
		st.Dropped += s.dropped.Value()
		st.Quarantined += s.quarantined.Value()
		st.QueueDepths[i] = s.in.length()
		st.ShardStateBytes[i] = s.totals.n[totalStateBytes].Load()
		st.FeatureStateBytes += st.ShardStateBytes[i]
	}
	st.ActiveModelVersion = e.ActiveModelVersion()
	st.ModelNodes, st.ModelBytes = e.modelSize(false)
	st.ModelSwaps = e.metrics.modelSwaps.Value()
	st.Shadow = e.ShadowStats()
	st.RecoveredSessions = e.recoveredSessions
	st.RecoveredEvents = e.recoveredEvents
	st.RetentionErrors = e.metrics.retentionErrors.Value()
	st.WALAppendErrors = e.walAppendErrs.Load()
	if s, ok := e.lastAppendErr.Load().(string); ok {
		st.LastWALAppendError = s
	}
	if e.wal != nil {
		st.WALEnabled = true
		st.WALAppended = e.wal.Appended()
		st.WALSegments = e.wal.Segments()
		st.WALNextLSN = e.wal.NextLSN()
		st.LastSnapshotSeq = e.snapSeq.Load()
	}
	if secs := st.Uptime.Seconds(); secs > 0 {
		st.IngestRate = float64(st.Ingested) / secs
	}
	return st
}

// ReadyReasons reports why the engine is not ready to serve, one reason
// per condition; an empty slice means ready. Liveness (/healthz) is a
// different question — a degraded engine is alive but should be rotated
// out of intake, which is exactly what a 503 from /readyz tells the load
// balancer.
func (e *Engine) ReadyReasons() []string {
	var reasons []string
	if degraded := e.total(totalDegraded); degraded > 0 {
		reasons = append(reasons, fmt.Sprintf("%d session(s) degraded after processing panics", degraded))
	}
	if msg, ok := e.lastAppendErr.Load().(string); ok && msg != "" {
		reasons = append(reasons, "last WAL append failed: "+msg)
	}
	if msg, ok := e.lastSnapErr.Load().(string); ok && msg != "" {
		reasons = append(reasons, "last snapshot failed: "+msg)
	}
	return reasons
}
