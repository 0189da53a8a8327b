package stream

import (
	"fmt"

	"cordial/internal/obs"
)

// engineMetrics is the engine's instrument set in the obs registry. The
// instruments ARE the engine's counters — EngineStats and /statsz read
// their values back out, so /metrics and /statsz can never disagree on a
// shared quantity. Durability instruments stay nil (and so no-op) when no
// WAL directory is configured, keeping /metrics free of dead series.
type engineMetrics struct {
	reg *obs.Registry // the engine's own, served by Engine.Metrics

	ingested       *obs.Counter
	actionsEmitted *obs.Counter
	actionsDropped *obs.Counter
	queueWait      *obs.Stage // IngestBatch's push of a shard's group
	fold           *obs.Stage // a live event's fold: a quiet append or a decision

	// Model lifecycle.
	modelSwaps   *obs.Counter
	swapPauseDur *obs.Histogram
	shadowStarts *obs.Counter

	// Durability layer (nil without a WAL directory).
	snapshots         *obs.Counter
	snapshotErrors    *obs.Counter
	snapshotDur       *obs.Histogram
	snapshotBytes     *obs.Gauge
	retentionErrors   *obs.Counter
	recoveredSessions *obs.Gauge
	recoveredEvents   *obs.Gauge
}

// registerMetrics creates the engine's instruments and scrape-time gauges in
// a registry of the engine's own, whose stages read the engine's clock. Called
// from New after the shards exist and before any consumer starts. The gauge
// callbacks read atomics only (the shard totals, the epoch table, the snapshot
// sequence), so a scrape takes no engine lock and sees what /statsz sees.
func (e *Engine) registerMetrics() {
	m := &e.metrics
	m.reg = obs.NewRegistry()
	m.reg.SetClock(e.cfg.Clock)
	reg := m.reg

	m.ingested = reg.Counter("cordial_ingest_accepted_total",
		"Events accepted by Ingest and enqueued to a shard.")
	m.actionsEmitted = reg.Counter("cordial_actions_emitted_total",
		"Mitigation actions delivered to the output channel.")
	m.actionsDropped = reg.Counter("cordial_actions_dropped_total",
		"Actions evicted from a full output channel to admit newer ones.")
	reg.GaugeFunc("cordial_actions_queued", "Actions emitted and not yet received from the output channel or evicted (at most the action buffer).",
		func() float64 { return float64(e.actions.queued()) })
	m.queueWait = reg.Stage("queue_wait")
	m.fold = reg.Stage("fold")

	m.modelSwaps = reg.Counter("cordial_model_swaps_total",
		"Model swaps that took effect (new sessions bind the new version).")
	m.swapPauseDur = reg.Histogram("cordial_model_swap_pause_seconds",
		"Ingest pause taken by one model swap (journal the swap record under every shard's ingest lock).", nil)
	m.shadowStarts = reg.Counter("cordial_shadow_evaluations_total",
		"Shadow evaluations started.")
	reg.GaugeFunc("cordial_model_active_version",
		"Model version new sessions currently bind.",
		func() float64 { return float64(e.ActiveModelVersion()) })
	for _, slot := range []string{"active", "shadow"} {
		shadow := slot == "shadow"
		reg.GaugeFunc("cordial_model_nodes",
			"Tree nodes, leaves included, of the slot's models (0: empty slot, or a strategy without models).",
			func() float64 { nodes, _ := e.modelSize(shadow); return float64(nodes) }, obs.L("slot", slot))
		reg.GaugeFunc("cordial_model_bytes",
			"In-memory bytes of the slot's models: node arenas, threshold tables and leaf rows.",
			func() float64 { _, bytes := e.modelSize(shadow); return float64(bytes) }, obs.L("slot", slot))
	}
	reg.GaugeFunc("cordial_shadow_active",
		"1 while a shadow evaluation is running, else 0.",
		func() float64 {
			if e.loadShadow() != nil {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("cordial_shadow_events",
		"Events folded into the current shadow evaluation's candidate twins.",
		func() float64 { return float64(e.ShadowStats().Events) })
	reg.GaugeFunc("cordial_shadow_agreements",
		"Shadow-evaluation events where candidate and primary decided identically.",
		func() float64 { return float64(e.ShadowStats().Agreements) })
	reg.GaugeFunc("cordial_shadow_decisions",
		"Shadow-evaluation events where either side decided something.",
		func() float64 { return float64(e.ShadowStats().Decisions) })

	reg.GaugeFunc("cordial_uptime_seconds",
		"Seconds since the engine started.",
		func() float64 { return e.cfg.Clock.Now().Sub(e.start).Seconds() })
	for _, g := range []struct {
		name, help string
		of         total
	}{
		{"cordial_sessions_live", "Live per-bank sessions.", totalSessions},
		{"cordial_sessions_degraded", "Sessions quarantined after a processing panic; they no longer feed their strategy session.", totalDegraded},
		{"cordial_sessions_released", "Sessions that dropped their feature state after a terminal decision (bank spared).", totalReleased},
		{"cordial_sessions_quiet", "Sessions of banks with no UER yet, holding an observation log instead of a feature state.", totalQuiet},
		{"cordial_feature_state_bytes", "Approximate resident bytes of all live sessions' incremental feature state.", totalStateBytes},
		{"cordial_feature_state_rows", "Tracked-row entries across live sessions' feature states.", totalStateRows},
	} {
		g := g
		reg.GaugeFunc(g.name, g.help, func() float64 { return float64(e.total(g.of)) })
	}

	for i, s := range e.shards {
		s := s
		shard := obs.L("shard", fmt.Sprintf("%d", i))
		s.dropped = reg.Counter("cordial_ingest_dropped_total",
			"Events shed at ingest by a full shard queue under the drop policy.", shard)
		s.processed = reg.Counter("cordial_events_processed_total",
			"Events fully run through a bank session.", shard)
		s.quarantined = reg.Counter("cordial_events_quarantined_total",
			"Events whose processing panicked; preserved in the dead-letter file when configured.", shard)
		reg.GaugeFunc("cordial_shard_queue_depth",
			"Current shard input queue occupancy.",
			func() float64 { return float64(s.in.length()) }, shard)
		reg.GaugeFunc("cordial_shard_feature_state_bytes",
			"Per-shard breakdown of cordial_feature_state_bytes.",
			func() float64 { return float64(s.totals.n[totalStateBytes].Load()) }, shard)
	}

	if e.cfg.Durability.Dir == "" {
		return
	}
	m.snapshots = reg.Counter("cordial_snapshots_total",
		"Engine snapshots written successfully.")
	m.snapshotErrors = reg.Counter("cordial_snapshot_errors_total",
		"Engine snapshot attempts that failed (encode or write).")
	m.snapshotDur = reg.Histogram("cordial_snapshot_seconds",
		"Wall time of one engine snapshot (encode, write, retention).", nil)
	m.snapshotBytes = reg.Gauge("cordial_snapshot_last_bytes",
		"Payload size of the most recent successful snapshot.")
	m.retentionErrors = reg.Counter("cordial_retention_errors_total",
		"Failed post-snapshot retention steps (journal truncation or snapshot pruning); disk usage grows until one succeeds.")
	m.recoveredSessions = reg.Gauge("cordial_recovered_sessions",
		"Sessions restored from the snapshot at the last boot.")
	m.recoveredEvents = reg.Gauge("cordial_recovered_events",
		"Journal records replayed at the last boot (including ones skipped as already applied).")
	reg.GaugeFunc("cordial_snapshot_seq",
		"Sequence number of the most recent snapshot written or recovered from.",
		func() float64 { return float64(e.snapSeq.Load()) })
}

// Metrics returns the engine's registry: its own instruments, the WAL's
// (when durability is on), and whatever else the caller registered (the
// HTTP server adds its instruments here). Rendered by GET /metrics.
func (e *Engine) Metrics() *obs.Registry { return e.metrics.reg }
