package lifecycle

import (
	"sync"
	"testing"
	"time"

	"cordial/internal/core"
	"cordial/internal/faultsim"
	"cordial/internal/hbm"
	"cordial/internal/obs"
	"cordial/internal/registry"
	"cordial/internal/stream"
	"cordial/internal/trace"
	"cordial/internal/wal"
)

// seedPipeline fits the v1 model on an aggregation-heavy fleet; the drift
// tests then feed scattered-heavy traffic so the class-mix test fires.
var seedPipeline = sync.OnceValues(func() (*core.Pipeline, error) {
	spec := trace.DefaultSpec(hbm.DefaultGeometry)
	spec.UERBanks = 60
	spec.BenignBanks = 0
	spec.Seed = 21
	fleet, err := trace.Generate(spec)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(core.RandomForest)
	cfg.Params = core.ModelParams{Trees: 10, Depth: 6}
	pipe, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := pipe.Fit(fleet.Faults); err != nil {
		return nil, err
	}
	return pipe, nil
})

// driftedFleet generates a scattered-heavy month: a mix far from the
// default weights the seed model trained under.
func driftedFleet(t *testing.T, seed uint64, uerBanks int) *trace.Fleet {
	t.Helper()
	spec := trace.DefaultSpec(hbm.DefaultGeometry)
	spec.UERBanks = uerBanks
	spec.BenignBanks = 0
	spec.Seed = seed
	spec.Weights = faultsim.PatternWeights{
		faultsim.PatternSingleRow:    15,
		faultsim.PatternDoubleRow:    5,
		faultsim.PatternHalfTotalRow: 0,
		faultsim.PatternScattered:    70,
		faultsim.PatternWholeColumn:  10,
	}
	fleet, err := trace.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	fleet.Log().Sort()
	return fleet
}

// harness builds the full loop: registry with the seed model active, a
// durable engine bound to it on a fake clock, and a manager with test-sized
// thresholds.
func harness(t *testing.T) (*stream.Engine, *registry.Registry, *Manager, *obs.FakeClock) {
	t.Helper()
	pipe, err := seedPipeline()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(registry.Options{Dir: t.TempDir(), Geometry: hbm.DefaultGeometry})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := reg.Install(pipe, "seed")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Activate(meta.Version); err != nil {
		t.Fatal(err)
	}
	clock := obs.NewFakeClock(time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC))
	engine, err := stream.New(stream.Config{
		Models:     reg,
		Shards:     4,
		Durability: stream.DurabilityConfig{Dir: t.TempDir(), Sync: wal.SyncNever},
		Clock:      clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { engine.Close() })
	go func() {
		for range engine.Actions() {
		}
	}()

	trainCfg := core.DefaultConfig(core.RandomForest)
	trainCfg.Params = core.ModelParams{Trees: 10, Depth: 6}
	mgr, err := New(Config{
		Engine:          engine,
		Registry:        reg,
		Geometry:        hbm.DefaultGeometry,
		Train:           trainCfg,
		Interval:        time.Minute, // ticks driven manually
		DriftPValue:     0.01,
		DriftSample:     30,
		MinBanks:        10,
		ShadowMinEvents: 50,
		ICRMargin:       1, // promotion gated on mechanics, not model luck
		Metrics:         engine.Metrics(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return engine, reg, mgr, clock
}

func ingest(t *testing.T, engine *stream.Engine, fleet *trace.Fleet) {
	t.Helper()
	for _, ev := range fleet.Log().Events() {
		if err := engine.Ingest(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := engine.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestDriftRetrainShadowPromote is the tentpole end-to-end: drifted
// traffic trips the chi-square check, the manager refits from the journal,
// shadow-scores the candidate on fresh traffic, and promotes it through
// the atomic swap — with zero dropped events and all pre-swap sessions
// still pinned to the seed version.
func TestDriftRetrainShadowPromote(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pipelines")
	}
	engine, reg, mgr, _ := harness(t)

	// Phase 1: drifted traffic. Classifications fill the ring; the journal
	// accumulates the self-labelling corpus.
	ingest(t, engine, driftedFleet(t, 31, 60))
	if _, n := engine.RecentClassMix(1 << 30); n < 30 {
		t.Fatalf("only %d classified banks after drifted ingest, need 30", n)
	}

	mgr.Tick()
	st := mgr.Status()
	if st.State != "shadowing" {
		t.Fatalf("after drift tick: state %q (lastErr %q), want shadowing", st.State, st.LastError)
	}
	if st.LastDriftP >= 0.01 {
		t.Fatalf("drift p-value %g did not cross the trigger", st.LastDriftP)
	}
	if st.CandidateVersion != 2 {
		t.Fatalf("candidate version %d, want 2", st.CandidateVersion)
	}
	if got := reg.Len(); got != 2 {
		t.Fatalf("registry holds %d versions, want 2", got)
	}

	// The swap has not happened: new sessions still bind v1.
	if v := engine.ActiveModelVersion(); v != 1 {
		t.Fatalf("active version %d during shadow, want 1", v)
	}

	// Phase 2: fresh traffic for fresh banks — these get shadow twins.
	ingest(t, engine, driftedFleet(t, 32, 40))
	ss := engine.ShadowStats()
	if ss.Events < 50 {
		t.Fatalf("shadow saw %d events, need 50", ss.Events)
	}
	if ss.Banks == 0 {
		t.Fatal("no banks acquired shadow twins")
	}

	// Phase 3: judgement tick promotes.
	mgr.Tick()
	st = mgr.Status()
	if st.State != "idle" || st.Promotions != 1 {
		t.Fatalf("after judge tick: state %q promotions %d (lastErr %q), want idle/1",
			st.State, st.Promotions, st.LastError)
	}
	if v := engine.ActiveModelVersion(); v != 2 {
		t.Fatalf("active version %d after promotion, want 2", v)
	}
	if v := reg.ActiveVersion(); v != 2 {
		t.Fatalf("registry active %d after promotion, want 2", v)
	}
	if engine.ShadowStats().Active {
		t.Fatal("shadow still active after promotion")
	}

	// Pre-swap sessions stay pinned to v1; post-swap banks bind v2.
	stats := engine.Stats()
	if stats.Dropped != 0 {
		t.Fatalf("%d events dropped", stats.Dropped)
	}
	if stats.Processed != stats.Ingested {
		t.Fatalf("processed %d != ingested %d", stats.Processed, stats.Ingested)
	}
	pinnedV1 := 0
	for _, s := range engine.Sessions() {
		if s.ModelVersion != 1 {
			t.Fatalf("pre-swap session %v pinned to %d, want 1", s.Bank, s.ModelVersion)
		}
		pinnedV1++
	}
	if pinnedV1 == 0 {
		t.Fatal("no sessions to check pinning on")
	}
	ingest(t, engine, driftedFleet(t, 33, 5))
	foundV2 := false
	for _, s := range engine.Sessions() {
		if s.ModelVersion == 2 {
			foundV2 = true
		}
	}
	if !foundV2 {
		t.Fatal("no post-swap session bound version 2")
	}

	// Manual rollback returns to v1 (sessions keep their pins).
	if err := mgr.Rollback(); err != nil {
		t.Fatal(err)
	}
	if v := engine.ActiveModelVersion(); v != 1 {
		t.Fatalf("active version %d after rollback, want 1", v)
	}
	if v := reg.ActiveVersion(); v != 1 {
		t.Fatalf("registry active %d after rollback, want 1", v)
	}
}

// TestShadowRollbackOnTimeout: a candidate that never sees enough traffic
// is rolled back, the incumbent stays active, and the artefact remains
// installed for manual promotion.
func TestShadowRollbackOnTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pipelines")
	}
	engine, reg, mgr, clock := harness(t)
	ingest(t, engine, driftedFleet(t, 41, 40))

	if err := mgr.Retrain("test"); err != nil {
		t.Fatal(err)
	}
	if st := mgr.Status(); st.State != "shadowing" {
		t.Fatalf("state %q, want shadowing", st.State)
	}

	// No further traffic: one tick short of the timeout (20 Intervals) the
	// candidate is still scoring, and at the timeout it is rolled back.
	clock.Advance(20*time.Minute - time.Second)
	mgr.Tick()
	if st := mgr.Status(); st.State != "shadowing" {
		t.Fatalf("state %q before the shadow timeout, want shadowing", st.State)
	}
	clock.Advance(time.Second)
	mgr.Tick()

	st := mgr.Status()
	if st.State != "idle" || st.Rollbacks != 1 {
		t.Fatalf("state %q rollbacks %d, want idle/1", st.State, st.Rollbacks)
	}
	if v := engine.ActiveModelVersion(); v != 1 {
		t.Fatalf("active version %d after rollback, want 1", v)
	}
	if got := reg.Len(); got != 2 {
		t.Fatalf("registry holds %d versions, want 2 (candidate kept)", got)
	}
	// The kept candidate can still be promoted manually.
	if err := mgr.Promote(2); err != nil {
		t.Fatal(err)
	}
	if v := engine.ActiveModelVersion(); v != 2 {
		t.Fatalf("active version %d after manual promotion, want 2", v)
	}
}

// TestDriftQuietWithoutShift: traffic matching the training mix must not
// trigger a retrain.
func TestDriftQuietWithoutShift(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pipelines")
	}
	engine, _, mgr, _ := harness(t)
	spec := trace.DefaultSpec(hbm.DefaultGeometry)
	spec.UERBanks = 60
	spec.BenignBanks = 0
	spec.Seed = 51 // default weights: same regime the seed model saw
	fleet, err := trace.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	fleet.Log().Sort()
	ingest(t, engine, fleet)

	mgr.Tick()
	st := mgr.Status()
	if st.State != "idle" || st.Retrains != 0 {
		t.Fatalf("state %q retrains %d after in-regime traffic, want idle/0 (p=%g)",
			st.State, st.Retrains, st.LastDriftP)
	}
}

// TestDriftRetrainCooldown: a drift retrain waits 4 Intervals after the
// previous retrain concluded, here by a rollback, so a drifted mix still in
// the ring does not refit 3 Intervals on and does at 4.
func TestDriftRetrainCooldown(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pipelines")
	}
	engine, _, mgr, clock := harness(t)
	ingest(t, engine, driftedFleet(t, 42, 40))
	if err := mgr.Retrain("test"); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Rollback(); err != nil {
		t.Fatal(err)
	}

	clock.Advance(3 * time.Minute)
	mgr.Tick()
	if st := mgr.Status(); st.State != "idle" || st.Retrains != 1 || st.LastDriftP >= 0.01 {
		t.Fatalf("3 Intervals after the rollback: state %q retrains %d drift p %g, want idle/1 under a drifted mix",
			st.State, st.Retrains, st.LastDriftP)
	}
	clock.Advance(time.Minute)
	mgr.Tick()
	if st := mgr.Status(); st.State != "shadowing" || st.Retrains != 2 {
		t.Fatalf("4 Intervals after the rollback: state %q retrains %d (lastErr %q), want shadowing/2",
			st.State, st.Retrains, st.LastError)
	}
}
