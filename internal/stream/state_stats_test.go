package stream

import (
	"reflect"
	"strings"
	"testing"

	"cordial/internal/core"
	"cordial/internal/hbm"
	"cordial/internal/trace"
)

// TestEngineFeatureStateStats pins the bounded-memory accounting: per-bank
// snapshots expose the feature state's footprint, spared banks show it
// released and hold only core's small released session, exactly the banks held in the store's stored form show it
// deferred (their nodes: bytes but no tracked rows), and the engine aggregates
// equal the sums over live sessions.
func TestEngineFeatureStateStats(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a pipeline")
	}
	pipe, err := trainedPipeline()
	if err != nil {
		t.Fatal(err)
	}
	strategy := &core.CordialStrategy{Pipeline: pipe, Geometry: hbm.DefaultGeometry}

	spec := trace.DefaultSpec(hbm.DefaultGeometry)
	spec.UERBanks = 30
	spec.BenignBanks = 10
	spec.Seed = 13
	fleet, err := trace.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	fleet.Log().Sort()

	engine := newTestEngine(t, Config{Strategy: strategy, Shards: 3, QueueDepth: 256})
	defer engine.Close()
	go func() {
		for range engine.Actions() {
		}
	}()
	ingestChunks(t, engine, fleet.Log().Events())

	es := engine.Stats()
	if es.FeatureStateBytes <= 0 || es.FeatureStateRows <= 0 {
		t.Fatalf("no feature state accounted: %d bytes, %d rows", es.FeatureStateBytes, es.FeatureStateRows)
	}
	if len(es.ShardStateBytes) != es.Shards {
		t.Fatalf("per-shard breakdown has %d entries, want %d", len(es.ShardStateBytes), es.Shards)
	}
	var breakdown int64
	for _, b := range es.ShardStateBytes {
		breakdown += b
	}
	if breakdown != es.FeatureStateBytes {
		t.Errorf("shard breakdown sums to %d, aggregate %d", breakdown, es.FeatureStateBytes)
	}

	// Cross-check the aggregate against the per-session snapshots and the
	// release contract for spared banks.
	var sessBytes, sessRows int64
	released, quiet := 0, 0
	for key := range fleet.Log().GroupByBank(hbm.HBM2E) {
		st, ok := engine.Session(hbm.HBM2E.Layout.UnpackBank(key))
		if !ok {
			t.Fatalf("no session for bank %x", key)
		}
		sessBytes += int64(st.StateBytes)
		sessRows += int64(st.StateRows)
		if st.StateReleased {
			released++
		}
		s := engine.shardFor(key)
		s.mu.Lock()
		sl := s.store.find(key)
		stored := sl.form() == slotStored
		held := uintptr(0) // the bytes of the object a heap bank's session points at
		if !stored {
			held = reflect.TypeOf(s.store.session(sl).sess).Elem().Size()
		}
		s.mu.Unlock()
		if st.StateDeferred != stored {
			t.Errorf("bank %x: stored form %t, %+v", key, stored, st)
		}
		if st.StateDeferred {
			quiet++
			if st.UEREvents != 0 || st.StateReleased || st.StateRows != 0 || st.StateBytes != st.Events*nodeBytes {
				t.Errorf("quiet bank %x: %+v", key, st)
			}
		} else if !st.StateReleased && st.StateRows <= 0 {
			t.Errorf("promoted bank %x tracks no rows", key)
		}
		if st.BankSpared {
			if !st.StateReleased {
				t.Errorf("bank %x spared but state not released", key)
			}
			if st.StateBytes != 0 || st.StateRows != 0 || held > 16 {
				t.Errorf("bank %x spared but retains %d bytes / %d rows, and a session of %d B", key, st.StateBytes, st.StateRows, held)
			}
		} else if st.StateBytes <= 0 {
			t.Errorf("live bank %x reports no feature state", key)
		}
	}
	if sessBytes != es.FeatureStateBytes || sessRows != es.FeatureStateRows {
		t.Errorf("aggregate %d bytes / %d rows, per-session sum %d / %d",
			es.FeatureStateBytes, es.FeatureStateRows, sessBytes, sessRows)
	}
	if es.SessionsReleased != released {
		t.Errorf("SessionsReleased = %d, per-session count %d", es.SessionsReleased, released)
	}
	if es.SessionsQuiet != quiet {
		t.Errorf("SessionsQuiet = %d, per-session count %d", es.SessionsQuiet, quiet)
	}
	if quiet == 0 {
		t.Error("no quiet session (no CE-only bank in test fleet?)")
	}
	// The gauges read the same shard totals.
	var scrape strings.Builder
	if err := engine.Metrics().WriteText(&scrape); err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]int64{
		"cordial_sessions_quiet":      int64(quiet),
		"cordial_sessions_released":   int64(released),
		"cordial_feature_state_bytes": sessBytes,
		"cordial_feature_state_rows":  sessRows,
	} {
		if got := metricValue(t, scrape.String(), series); got != float64(want) {
			t.Errorf("%s = %v, per-session sum %d", series, got, want)
		}
	}
	if released == 0 {
		t.Error("no session released state (no bank spared in test fleet?)")
	}
}
