package stream

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/hbm"
	"cordial/internal/obs"
	"cordial/internal/wal"
)

// scrapeMetrics fetches /metrics and validates every line against the
// exposition grammar before returning the body.
func scrapeMetrics(t *testing.T, srv *Server) string {
	t.Helper()
	rec, body := get(t, srv, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d: %s", rec.Code, body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := obs.ValidateLine(line); err != nil {
			t.Fatalf("invalid exposition line %q: %v", line, err)
		}
	}
	return string(body)
}

// metricValue returns the value of the single series named exactly series
// (including any label block), failing if it is absent.
func metricValue(t *testing.T, exposition, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not in exposition:\n%s", series, exposition)
	return 0
}

// metricSum sums every series of the family (e.g. all shard labels).
func metricSum(t *testing.T, exposition, family string) float64 {
	t.Helper()
	sum, found := 0.0, false
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue // longer name sharing the prefix
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("family %s: bad line %q", family, line)
		}
		sum += v
		found = true
	}
	if !found {
		t.Fatalf("family %s not in exposition:\n%s", family, exposition)
	}
	return sum
}

// TestMetricsExposition pins the /metrics contract: a valid Prometheus
// text scrape covering every serving layer, with counters monotone across
// scrapes.
func TestMetricsExposition(t *testing.T) {
	engine, srv := newTestServer(t, Config{Shards: 2})
	bank := testBank(1)
	post(t, srv, jsonlBody(t, uerAt(bank, 100, 0), uerAt(bank, 101, 1), uerAt(bank, 102, 2)))
	if err := engine.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	out := scrapeMetrics(t, srv)
	// One scrape covers HTTP, engine counters, the stage histograms, shard
	// gauges.
	for _, want := range []string{
		"# TYPE cordial_ingest_accepted_total counter",
		"# TYPE cordial_ingest_dropped_total counter",
		"# TYPE cordial_events_processed_total counter",
		"# TYPE cordial_events_quarantined_total counter",
		"# TYPE cordial_stage_seconds histogram",
		"# TYPE cordial_shard_queue_depth gauge",
		"# TYPE cordial_feature_state_bytes gauge",
		"# TYPE cordial_model_nodes gauge",
		"# TYPE cordial_model_bytes gauge",
		`cordial_model_bytes{slot="shadow"} 0`,
		"# TYPE cordial_http_requests_total counter",
		`cordial_events_processed_total{shard="0"}`,
		`cordial_events_processed_total{shard="1"}`,
		`cordial_stage_seconds_bucket{stage="decode",le="+Inf"} 1`,
		`cordial_stage_seconds_bucket{stage="queue_wait",le="+Inf"} 1`,
		`cordial_stage_seconds_bucket{stage="fold",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if got := metricValue(t, out, "cordial_ingest_accepted_total"); got != 3 {
		t.Errorf("ingest_accepted_total = %v, want 3", got)
	}
	if got := metricSum(t, out, "cordial_events_processed_total"); got != 3 {
		t.Errorf("sum(events_processed_total) = %v, want 3", got)
	}

	// Monotonicity: more traffic, second scrape, counters only go up.
	post(t, srv, jsonlBody(t, uerAt(bank, 103, 3)))
	if err := engine.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	out2 := scrapeMetrics(t, srv)
	for _, c := range []string{
		"cordial_ingest_accepted_total",
		"cordial_http_requests_total",
	} {
		before, after := metricValue(t, out, c), metricValue(t, out2, c)
		if after <= before {
			t.Errorf("%s not monotone across scrapes: %v -> %v", c, before, after)
		}
	}
	// A stage counts samples: four folds are ⌈4/64⌉, the first.
	if got := metricValue(t, out2, `cordial_stage_seconds_count{stage="fold"}`); got != 1 {
		t.Errorf("fold stage holds %v samples of 4 folds, want 1", got)
	}
}

// TestStatszMetricsAgree pins the one-source-of-truth property: every
// quantity reported by both /statsz and /metrics is identical, because
// both read the same instruments and the same shard totals.
func TestStatszMetricsAgree(t *testing.T) {
	engine, srv := newTestServer(t, Config{
		Shards:   3,
		Strategy: quietFake{&fakeStrategy{budget: 3, poisonRow: 666, footprint: true}},
	})
	for i := 0; i < 4; i++ {
		bank := testBank(i)
		post(t, srv, jsonlBody(t,
			uerAt(bank, 100, 0), uerAt(bank, 101, 1), uerAt(bank, 102, 2), uerAt(bank, 102, 3)))
	}
	quiet := uerAt(testBank(5), 7, 4)
	quiet.Class = ecc.ClassCE
	post(t, srv, jsonlBody(t, quiet, uerAt(testBank(6), 666, 5)))
	if err := engine.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The server's reader takes the actions off the queue; wait until it has,
	// so that the backlog is the same in both views.
	for deadline := time.Now().Add(5 * time.Second); engine.Stats().ActionsQueued > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d actions still queued", engine.Stats().ActionsQueued)
		}
	}

	// Scrape /metrics FIRST: the /statsz request increments the HTTP
	// request counter, so the later JSON view must be >= the scrape.
	out := scrapeMetrics(t, srv)
	rec, body := get(t, srv, "/statsz")
	if rec.Code != http.StatusOK {
		t.Fatalf("statsz = %d", rec.Code)
	}
	type latency struct {
		Count uint64 `json:"count"`
		Mean  string `json:"mean"`
		P99   string `json:"p99"`
		Max   string `json:"max"`
	}
	var st struct {
		Ingested         uint64  `json:"ingested"`
		Dropped          uint64  `json:"dropped"`
		Processed        uint64  `json:"processed"`
		ActionsEmitted   uint64  `json:"actionsEmitted"`
		ActionsQueued    uint64  `json:"actionsQueued"`
		Quarantined      uint64  `json:"quarantined"`
		SessionsLive     uint64  `json:"sessionsLive"`
		SessionsQuiet    uint64  `json:"sessionsQuiet"`
		SessionsReleased uint64  `json:"sessionsReleased"`
		SessionsDegraded uint64  `json:"sessionsDegraded"`
		StateBytes       uint64  `json:"featureStateBytes"`
		StateRows        uint64  `json:"featureStateRows"`
		ShardStateBytes  []int64 `json:"shardFeatureStateBytes"`
		ModelNodes       uint64  `json:"modelNodes"`
		ModelBytes       uint64  `json:"modelBytes"`
		Process          latency `json:"processLatency"`
		IngestWait       latency `json:"ingestWaitLatency"`
		Decode           latency `json:"decodeLatency"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		json uint64
		prom float64
	}{
		{"ingested", st.Ingested, metricValue(t, out, "cordial_ingest_accepted_total")},
		{"dropped", st.Dropped, metricSum(t, out, "cordial_ingest_dropped_total")},
		{"processed", st.Processed, metricSum(t, out, "cordial_events_processed_total")},
		{"actionsEmitted", st.ActionsEmitted, metricValue(t, out, "cordial_actions_emitted_total")},
		{"actionsQueued", st.ActionsQueued, metricValue(t, out, "cordial_actions_queued")},
		{"quarantined", st.Quarantined, metricSum(t, out, "cordial_events_quarantined_total")},
		{"sessionsLive", st.SessionsLive, metricValue(t, out, "cordial_sessions_live")},
		{"sessionsQuiet", st.SessionsQuiet, metricValue(t, out, "cordial_sessions_quiet")},
		{"sessionsReleased", st.SessionsReleased, metricValue(t, out, "cordial_sessions_released")},
		{"sessionsDegraded", st.SessionsDegraded, metricValue(t, out, "cordial_sessions_degraded")},
		{"featureStateBytes", st.StateBytes, metricValue(t, out, "cordial_feature_state_bytes")},
		{"featureStateRows", st.StateRows, metricValue(t, out, "cordial_feature_state_rows")},
		{"modelNodes", st.ModelNodes, metricValue(t, out, `cordial_model_nodes{slot="active"}`)},
		{"modelBytes", st.ModelBytes, metricValue(t, out, `cordial_model_bytes{slot="active"}`)},
		{"processCount", st.Process.Count, metricValue(t, out, `cordial_stage_seconds_count{stage="fold"}`)},
		{"ingestWaitCount", st.IngestWait.Count, metricValue(t, out, `cordial_stage_seconds_count{stage="queue_wait"}`)},
		{"decodeCount", st.Decode.Count, metricValue(t, out, `cordial_stage_seconds_count{stage="decode"}`)},
	} {
		if float64(tc.json) != tc.prom {
			t.Errorf("%s: /statsz %d != /metrics %v", tc.name, tc.json, tc.prom)
		}
	}
	for i, b := range st.ShardStateBytes {
		series := fmt.Sprintf(`cordial_shard_feature_state_bytes{shard="%d"}`, i)
		if got := metricValue(t, out, series); got != float64(b) {
			t.Errorf("%s = %v, /statsz shardFeatureStateBytes[%d] = %d", series, got, i, b)
		}
	}
	// A stage holds ⌈n/64⌉ samples of its n occurrences: here the fold's
	// events processed; the 5 or 6 pushes of a shard's group (one per
	// single-bank body, one or two for the two-bank one); and the decode's
	// 23 BodyReader.Next calls (each body's events and its end).
	for stage, c := range map[string]struct{ n, samples uint64 }{
		"fold":       {st.Processed, st.Process.Count},
		"queue_wait": {5, st.IngestWait.Count},
		"decode":     {23, st.Decode.Count},
	} {
		if want := (c.n + obs.StageEvery - 1) / obs.StageEvery; c.samples != want {
			t.Errorf("%s stage: %d samples of %d occurrences, want %d", stage, c.samples, c.n, want)
		}
	}
	// A latency's mean is its stage's _sum over _count, and its p99 the
	// scrape-side quantile of the same buckets (capped at the exact max).
	snap, err := obs.ParseText(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	for stage, l := range map[string]latency{
		"fold":       st.Process,
		"queue_wait": st.IngestWait,
		"decode":     st.Decode,
	} {
		seconds := func(v float64) string { return time.Duration(math.Round(v * 1e9)).String() }
		sum := metricValue(t, out, fmt.Sprintf(`cordial_stage_seconds_sum{stage="%s"}`, stage))
		if want := seconds(sum / float64(l.Count)); l.Mean != want {
			t.Errorf("%s: /statsz mean %s, /metrics _sum/_count %s", stage, l.Mean, want)
		}
		p99, ok := snap.Quantile("cordial_stage_seconds", 0.99, obs.L("stage", stage))
		max, err := time.ParseDuration(l.Max)
		if !ok || err != nil {
			t.Fatalf("%s: quantile ok=%v, max %q: %v", stage, ok, l.Max, err)
		}
		if want := min(time.Duration(math.Round(p99*1e9)), max).String(); l.P99 != want {
			t.Errorf("%s: /statsz p99 %s, scrape quantile %s (max %s)", stage, l.P99, want, l.Max)
		}
	}
	if st.Ingested == 0 || st.Processed == 0 || st.SessionsQuiet == 0 || st.SessionsReleased == 0 ||
		st.SessionsDegraded == 0 || st.StateRows == 0 {
		t.Fatalf("test traffic does not reach every quantity: %s", body)
	}
}

// TestReadyzFlipsOnWALAppendFailure pins the readiness regression: a
// daemon whose journal cannot fsync keeps answering 200 on /healthz
// (liveness — restarting won't fix the disk) but must flip /readyz to 503
// until an append succeeds again.
func TestReadyzFlipsOnWALAppendFailure(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	ffs := wal.NewFaultFS(wal.OSFS)
	cfg := durCfg(dir, 2, nil)
	cfg.Durability.FS = ffs
	cfg.Durability.Sync = wal.SyncAlways
	engine, srv := newTestServer(t, cfg)
	bank := testBank(3)

	if rec, body := get(t, srv, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("initial readyz = %d: %s", rec.Code, body)
	}

	ffs.FailSyncAfter(0)
	if err := engine.Ingest(uerAt(bank, 100, 0)); err == nil {
		t.Fatal("ingest under failing fsync succeeded")
	}
	rec, body := get(t, srv, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after append failure = %d, want 503", rec.Code)
	}
	var ready struct {
		Ready   bool     `json:"ready"`
		Reasons []string `json:"reasons"`
	}
	if err := json.Unmarshal(body, &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Ready || len(ready.Reasons) == 0 || !strings.Contains(ready.Reasons[0], "WAL append") {
		t.Fatalf("readyz body %+v", ready)
	}
	// Liveness must NOT flip: the process is healthy, the disk is not.
	if rec, _ := get(t, srv, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz flipped to %d under WAL failure", rec.Code)
	}
	// /statsz surfaces the same condition.
	_, sbody := get(t, srv, "/statsz")
	var st struct {
		WALAppendErrors uint64 `json:"walAppendErrors"`
		LastAppendErr   string `json:"lastWALAppendError"`
	}
	if err := json.Unmarshal(sbody, &st); err != nil {
		t.Fatal(err)
	}
	if st.WALAppendErrors != 1 || st.LastAppendErr == "" {
		t.Fatalf("statsz wal append errors = %d (%q), want 1 with message", st.WALAppendErrors, st.LastAppendErr)
	}

	// Recovery: the fault clears, one successful append restores readiness.
	ffs.FailSyncAfter(-1)
	if err := engine.Ingest(uerAt(bank, 101, 1)); err != nil {
		t.Fatal(err)
	}
	if rec, body := get(t, srv, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz after recovery = %d: %s", rec.Code, body)
	}
}

// TestReadyzFlipsOnDegradedSession: a poisoned event quarantines its
// session; the instance keeps serving (healthz 200) but reports not-ready
// so the balancer can rotate it out for inspection.
func TestReadyzFlipsOnDegradedSession(t *testing.T) {
	engine, srv := newTestServer(t, Config{
		Shards:   2,
		Strategy: &fakeStrategy{budget: 3, poisonRow: 666},
	})
	bank := testBank(2)
	if err := engine.Ingest(uerAt(bank, 666, 0)); err != nil {
		t.Fatal(err)
	}
	if err := engine.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	rec, body := get(t, srv, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with degraded session = %d: %s", rec.Code, body)
	}
	if !strings.Contains(string(body), "degraded") {
		t.Fatalf("readyz body lacks degraded reason: %s", body)
	}
	if rec, _ := get(t, srv, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz flipped under degradation")
	}
	// The quarantine landed on the shard counter too.
	out := scrapeMetrics(t, srv)
	if got := metricSum(t, out, "cordial_events_quarantined_total"); got != 1 {
		t.Errorf("quarantined sum = %v, want 1", got)
	}
}

// TestMetricsScrapeConcurrentWithIngest exercises every instrument and
// both telemetry endpoints under concurrent load; meaningful under -race
// (the CI race pass runs this package).
func TestMetricsScrapeConcurrentWithIngest(t *testing.T) {
	engine, srv := newTestServer(t, Config{Shards: 4, Policy: IngestDrop, QueueDepth: 8})
	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				bank := testBank(w*31 + i%17)
				err := engine.Ingest(uerAt(bank, 100+i%7, i))
				if err != nil && err != ErrDropped {
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			if err := engine.Drain(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			out := scrapeMetrics(t, srv)
			accepted := metricValue(t, out, "cordial_ingest_accepted_total")
			dropped := metricSum(t, out, "cordial_ingest_dropped_total")
			if accepted+dropped != writers*perWriter {
				t.Fatalf("accepted %v + dropped %v != %d", accepted, dropped, writers*perWriter)
			}
			if processed := metricSum(t, out, "cordial_events_processed_total"); processed != accepted {
				t.Fatalf("processed %v != accepted %v after drain", processed, accepted)
			}
			return
		default:
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("mid-load scrape = %d", rec.Code)
			}
			rec = httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("GET", "/statsz", nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("mid-load statsz = %d", rec.Code)
			}
		}
	}
}

// TestRetentionErrorsSurfaced pins the swallowed-retention-error fix:
// when post-snapshot journal truncation fails, the snapshot still
// succeeds (retention is best-effort) but the failure is counted on
// cordial_retention_errors_total and /statsz instead of vanishing.
func TestRetentionErrorsSurfaced(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	fs := wal.NewFaultFS(wal.OSFS)
	// One shard so the retention floor is that shard's applied LSN and
	// truncation actually has retired segments to remove; tiny segments so
	// 40 events span several of them.
	cfg := durCfg(dir, 1, nil)
	cfg.Durability.FS = fs
	cfg.Durability.SegmentBytes = 256
	engine, srv := newTestServer(t, cfg)
	bank := testBank(5)
	for i := 0; i < 40; i++ {
		if err := engine.Ingest(uerAt(bank, 100+i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := engine.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	fs.FailRemoves(true) // the retention step cannot delete retired files
	if _, err := engine.Snapshot(); err != nil {
		t.Fatalf("snapshot must survive a retention failure, got %v", err)
	}
	fs.FailRemoves(false)

	st := engine.Stats()
	if st.RetentionErrors == 0 {
		t.Fatal("retention failure not counted in EngineStats.RetentionErrors")
	}
	out := scrapeMetrics(t, srv)
	if got := metricValue(t, out, "cordial_retention_errors_total"); got != float64(st.RetentionErrors) {
		t.Fatalf("cordial_retention_errors_total = %v, engine says %d", got, st.RetentionErrors)
	}
	_, body := get(t, srv, "/statsz")
	var js struct {
		RetentionErrors uint64 `json:"retentionErrors"`
	}
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	if js.RetentionErrors != st.RetentionErrors {
		t.Fatalf("statsz retentionErrors %d != engine %d", js.RetentionErrors, st.RetentionErrors)
	}
	// A later snapshot with working retention does not re-fail.
	before := st.RetentionErrors
	if _, err := engine.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := engine.Stats().RetentionErrors; got != before {
		t.Fatalf("healthy retention still counted errors: %d -> %d", before, got)
	}
}

// TestSnapshotFailureNotReady: a checkpoint that cannot be written leaves the
// engine not ready, on /readyz too, until a checkpoint succeeds again.
func TestSnapshotFailureNotReady(t *testing.T) {
	fs := wal.NewFaultFS(wal.OSFS)
	cfg := durCfg(t.TempDir(), 1, nil)
	cfg.Durability.FS = fs
	engine, srv := newTestServer(t, cfg)
	feed(t, engine, uerAt(testBank(5), 100, 1))
	fs.FailOpens(true)
	if _, err := engine.Snapshot(); err == nil {
		t.Fatal("a snapshot that cannot open its file succeeded")
	}
	fs.FailOpens(false)
	if r := engine.ReadyReasons(); len(r) != 1 || !strings.HasPrefix(r[0], "last snapshot failed: ") {
		t.Fatalf("after a failed snapshot the engine reports %q", r)
	}
	if err := wantStatus(t, srv, "/readyz", http.StatusServiceUnavailable); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if r := engine.ReadyReasons(); len(r) != 0 {
		t.Fatalf("after a snapshot succeeded again the engine reports %q", r)
	}
}

// TestModelSizeSurfaces asserts the model footprint reads the same on every
// surface — the pipeline's own ModelSize, cordial_model_nodes/_bytes by slot
// and /statsz — and follows a swap and a shadow evaluation: a fake strategy
// has no models and reads zero.
func TestModelSizeSurfaces(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a pipeline")
	}
	pipe, err := trainedPipeline()
	if err != nil {
		t.Fatal(err)
	}
	nodes, size := pipe.ModelSize()
	if nodes == 0 || size < 8*nodes {
		t.Fatalf("fitted pipeline reports %d nodes in %d bytes", nodes, size)
	}
	fm := newFakeModels(1, 2)
	fm.versions[2] = &core.CordialStrategy{Pipeline: pipe, Geometry: hbm.DefaultGeometry}
	e := newTestEngine(t, Config{Models: fm, Shards: 1})
	defer e.Close()
	srv := NewServer(e, ServerConfig{})
	check := func(when string, activeNodes, activeBytes, shadowNodes int) {
		t.Helper()
		out := scrapeMetrics(t, srv)
		var stats struct{ ModelNodes, ModelBytes int }
		_, body := get(t, srv, "/statsz")
		if err := json.Unmarshal(body, &stats); err != nil {
			t.Fatal(err)
		}
		for series, want := range map[string]int{
			`cordial_model_nodes{slot="active"}`: activeNodes, `cordial_model_bytes{slot="active"}`: activeBytes,
			`cordial_model_nodes{slot="shadow"}`: shadowNodes,
		} {
			if got := metricValue(t, out, series); got != float64(want) {
				t.Errorf("%s: %s = %v, want %d", when, series, got, want)
			}
		}
		if stats.ModelNodes != activeNodes || stats.ModelBytes != activeBytes {
			t.Errorf("%s: statsz modelNodes/modelBytes = %d/%d, want %d/%d", when, stats.ModelNodes, stats.ModelBytes, activeNodes, activeBytes)
		}
	}
	check("fake strategy active", 0, 0, 0)
	if err := e.StartShadow(2); err != nil {
		t.Fatal(err)
	}
	check("pipeline shadowed", 0, 0, nodes)
	e.StopShadow()
	if _, err := e.SwapModel(2); err != nil {
		t.Fatal(err)
	}
	check("pipeline active", nodes, size, 0)
}
