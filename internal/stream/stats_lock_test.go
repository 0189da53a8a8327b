package stream

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/wal"
)

// TestStatsSurfacesTakeNoShardLock holds every shard's mu, the engine's
// snapMu and the journal's mu — a consumer mid-fold on each shard, a snapshot
// mid-encode and an append mid-fsync — and requires every reader on the stats
// path to return regardless.
func TestStatsSurfacesTakeNoShardLock(t *testing.T) {
	// Once armed, the next fsync parks until released: the journal's mutex is
	// then held by an append for as long as the test likes.
	fs := wal.NewFaultFS(wal.OSFS)
	var armed atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	fs.OnOp = func(op, _ string) {
		if op == "sync" && armed.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
	}
	cfg := durCfg(filepath.Join(t.TempDir(), "wal"), 3, &fakeStrategy{budget: 3, poisonRow: 666})
	cfg.Durability.FS, cfg.Durability.Sync = fs, wal.SyncAlways
	e, srv := newTestServer(t, cfg)
	for i := 0; i < 12; i++ {
		if err := e.Ingest(uerAt(testBank(i), 100+i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Ingest(uerAt(testBank(20), 666, 20)); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// An append to a bank the engine already holds parks in its fsync, inside
	// the journal's mutex, until the readers below have all returned.
	armed.Store(true)
	appended := make(chan error, 1)
	go func() { appended <- e.Ingest(uerAt(testBank(0), 100, 30)) }()
	<-entered
	defer func() {
		close(release)
		if err := <-appended; err != nil {
			t.Errorf("the parked append: %v", err)
		}
	}()

	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	for _, s := range e.shards {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	for name, read := range map[string]func() error{
		"Stats": func() error {
			if st := e.Stats(); st.SessionsLive != 13 || st.SessionsDegraded != 1 || st.WALAppended != 13 || st.WALSegments != 1 {
				return fmt.Errorf("stats %+v", st)
			}
			return nil
		},
		"Metrics().WriteText": func() error { return e.Metrics().WriteText(io.Discard) },
		"ReadyReasons": func() error {
			if r := e.ReadyReasons(); len(r) != 1 {
				return fmt.Errorf("reasons %q", r)
			}
			return nil
		},
		"NeededVersions": func() error {
			if v := e.NeededVersions(); !slices.Contains(v, staticVersion) {
				return fmt.Errorf("needed versions %v", v)
			}
			return nil
		},
		"GET /statsz":  func() error { return wantStatus(t, srv, "/statsz", http.StatusOK) },
		"GET /readyz":  func() error { return wantStatus(t, srv, "/readyz", http.StatusServiceUnavailable) },
		"GET /metrics": func() error { return wantStatus(t, srv, "/metrics", http.StatusOK) },
	} {
		done := make(chan error, 1)
		go func() { done <- read() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
		case <-time.After(time.Second):
			t.Errorf("%s blocked behind a shard lock, the snapshot lock or the journal lock", name)
		}
	}
}

func wantStatus(t *testing.T, srv *Server, path string, want int) error {
	rec, body := get(t, srv, path)
	if rec.Code != want {
		return fmt.Errorf("status %d, want %d: %s", rec.Code, want, body)
	}
	return nil
}

// TestStatszCostIsFlat: at fleet size a /statsz costs what it costs on an
// empty engine — it reads totals, it does not visit sessions — and the
// per-version counts it reports still equal a recount of them.
func TestStatszCostIsFlat(t *testing.T) {
	const banks = 50000
	fm := newFakeModels(1, 2)
	e := newTestEngine(t, Config{Models: fm, Shards: 2})
	t.Cleanup(func() { e.Close() })
	srv := NewServer(e, ServerConfig{})
	evs := quietFleet(banks)[:banks] // one event per bank
	ingest := func(evs []mcelog.Event) {
		for i := 0; i < len(evs); i += 1024 {
			if _, _, err := e.IngestBatch(evs[i:min(i+1024, len(evs))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Drain(30 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	ingest(evs[:banks/5*4])
	if _, err := e.SwapModel(2); err != nil {
		t.Fatal(err)
	}
	ingest(evs[banks/5*4:])

	get(t, srv, "/statsz") // warm the encoder's type cache
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, statsz := get(t, srv, "/statsz")
	runtime.ReadMemStats(&after)
	if !raceEnabled { // the race detector changes allocation sizes
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("one GET /statsz over %d sessions allocated %d bytes, want <= 64 KiB", banks, got)
		}
	}
	var body struct {
		SessionsLive int            `json:"sessionsLive"`
		ByVersion    map[uint64]int `json:"sessionsByModelVersion"`
	}
	if err := json.Unmarshal(statsz, &body); err != nil {
		t.Fatal(err)
	}
	recount := make(map[uint64]int)
	for _, st := range e.Sessions() {
		recount[st.ModelVersion]++
	}
	if body.SessionsLive != banks || fmt.Sprint(body.ByVersion) != fmt.Sprint(recount) || len(recount) != 2 {
		t.Errorf("statsz says %d sessions %v, a recount %v", body.SessionsLive, body.ByVersion, recount)
	}
}

// recountTotals rebuilds what the shard totals should read from a full walk
// of the sessions.
func recountTotals(e *Engine) (st EngineStats) {
	st.SessionsByModelVersion = make(map[uint64]int)
	st.ShardStateBytes = make([]int64, len(e.shards))
	for _, ss := range e.Sessions() {
		st.SessionsLive++
		st.SessionsByModelVersion[ss.ModelVersion]++
		st.FeatureStateBytes += int64(ss.StateBytes)
		st.FeatureStateRows += int64(ss.StateRows)
		st.ShardStateBytes[e.shardIndex(ss.Bank.BankKey())] += int64(ss.StateBytes)
		if ss.StateReleased {
			st.SessionsReleased++
		}
		if ss.StateDeferred {
			st.SessionsQuiet++
		}
		if ss.Degraded {
			st.SessionsDegraded++
		}
	}
	return st
}

// assertTotalsMatchRecount compares every atomic total with the recount.
func assertTotalsMatchRecount(t *testing.T, when string, e *Engine) {
	t.Helper()
	got, want := e.Stats(), recountTotals(e)
	pick := func(st EngineStats) string {
		return fmt.Sprintf("live=%d quiet=%d released=%d degraded=%d bytes=%d rows=%d shardBytes=%v byVersion=%v",
			st.SessionsLive, st.SessionsQuiet, st.SessionsReleased, st.SessionsDegraded,
			st.FeatureStateBytes, st.FeatureStateRows, st.ShardStateBytes, st.SessionsByModelVersion)
	}
	if pick(got) != pick(want) {
		t.Errorf("%s: totals\n  %s\nrecount\n  %s", when, pick(got), pick(want))
	}
	needed := e.NeededVersions()
	for v := range want.SessionsByModelVersion {
		if !slices.Contains(needed, v) {
			t.Errorf("%s: NeededVersions %v lacks version %d, which a recount finds pinned", when, needed, v)
		}
	}
}

// TestShardTotalsMatchRecount drives every writer of the shard totals — live
// folds, a poisoned event, a model swap, import, drop, a restore that falls
// back past a snapshot whose payload fails mid-restore, and a stored bank
// whose promotion panics — under a seeded event mix, and after each step
// requires every total to equal a recount from a full walk. Run under -race
// in CI: a scraper reads throughout.
func TestShardTotalsMatchRecount(t *testing.T) {
	t.Run("promotion panics", testPromotionPanicTotals)
	rng := rand.New(rand.NewSource(22))
	fleet := func(banks, events int, poison bool) []mcelog.Event {
		evs := make([]mcelog.Event, events)
		for i := range evs {
			bank := rng.Intn(banks)
			ev := uerAt(testBank(bank), 100+rng.Intn(12), i)
			if bank%4 == 3 || rng.Intn(3) == 0 { // every fourth bank stays quiet
				ev.Class = ecc.ClassCE
			}
			evs[i] = ev
		}
		if poison {
			evs[events/2].Addr.Row = 666
		}
		return evs
	}
	newModels := func() *fakeModels {
		fm := newFakeModels(1, 2)
		for v := range fm.versions {
			fm.versions[v] = quietFake{&fakeStrategy{budget: 3, poisonRow: 666, footprint: true}}
		}
		return fm
	}
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := Config{Models: newModels(), Shards: 3, Durability: DurabilityConfig{Dir: dir, Sync: wal.SyncNever}}
	e := newTestEngine(t, cfg)
	stopScrape := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stopScrape:
				return
			default:
				e.Stats()
				_ = e.Metrics().WriteText(io.Discard)
				e.NeededVersions()
			}
		}
	}()
	ingest := func(e *Engine, evs []mcelog.Event) {
		t.Helper()
		if _, _, err := e.IngestBatch(evs); err != nil {
			t.Fatal(err)
		}
		feed(t, e)
	}
	ingest(e, fleet(40, 400, true))
	assertTotalsMatchRecount(t, "after ingest with a poisoned event", e)
	if st := e.Stats(); st.SessionsDegraded != 1 || st.SessionsQuiet == 0 || st.SessionsReleased == 0 || st.FeatureStateRows == 0 {
		t.Fatalf("mix does not reach every total: %+v", st)
	}
	if _, err := e.SwapModel(2); err != nil {
		t.Fatal(err)
	}
	more := fleet(80, 300, false)
	ingest(e, more)
	assertTotalsMatchRecount(t, "after a swap and more ingest", e)
	if st := e.Stats(); len(st.SessionsByModelVersion) != 2 {
		t.Fatalf("no session born under version 2: %v", st.SessionsByModelVersion)
	}

	// Hand every even-numbered bank to a second engine, then drop them here.
	even := func(key uint64) bool { return hbm.HBM2E.Layout.Unpack(key).Bank%2 == 0 }
	payload, err := e.ExportSessions(even)
	if err != nil {
		t.Fatal(err)
	}
	peer := newTestEngine(t, Config{Models: newModels(), Shards: 2})
	defer peer.Close()
	ingest(peer, fleet(9, 30, false)) // some local sessions: conflicts are refused, not counted twice
	if _, err := peer.ImportSessions(payload, nil, nil); err != nil {
		t.Fatal(err)
	}
	assertTotalsMatchRecount(t, "importer after ImportSessions", peer)
	if _, err := e.DropSessions(even); err != nil {
		t.Fatal(err)
	}
	assertTotalsMatchRecount(t, "after DropSessions", e)
	close(stopScrape)
	<-scraped
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// The newest snapshot (written by DropSessions) passes its checksum but one
	// session's strategy image will not restore, so the restore fails part-way
	// and recovery resets and falls back to the snapshot before it.
	snaps, err := wal.ListSnapshots(wal.OSFS, dir)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("snapshots %v, %v", snaps, err)
	}
	seq, good, err := wal.ReadSnapshot(wal.OSFS, snaps[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	hdr, images, err := decodeSnapshotSessions(good)
	if err != nil || len(images) < 2 {
		t.Fatalf("%d images, %v", len(images), err)
	}
	images[len(images)-1].blob = []byte{9} // a fake-session image version nobody reads
	bad, err := encodeSnapshotImages(engineSnapVersion, hdr, images)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.WriteSnapshot(wal.OSFS, dir, seq+1, bad); err != nil {
		t.Fatal(err)
	}
	re := newTestEngine(t, cfg)
	defer re.Close()
	if got := re.Stats().LastSnapshotSeq; got != seq {
		t.Fatalf("recovered from snapshot %d, want the fallback %d", got, seq)
	}
	assertTotalsMatchRecount(t, "after a restore that fell back past a bad payload", re)
	if re.Stats().SessionsLive == 0 {
		t.Fatal("nothing recovered")
	}
}

// testPromotionPanicTotals: a stored bank whose strategy panics resuming its
// log is promoted all the same — degraded, its event dead-lettered, nothing
// else disturbed — and the totals equal a recount before, at and after it.
func testPromotionPanicTotals(t *testing.T) {
	poison := time.Date(2026, 1, 1, 0, 0, 3, 0, time.UTC) // uerAt(_, _, 3)'s timestamp
	dead := filepath.Join(t.TempDir(), "dead.jsonl")
	e := newTestEngine(t, Config{Strategy: &logStrategy{poisonAt: poison}, Shards: 2, DeadLetterPath: dead})
	defer e.Close()
	ingest := func(evs ...mcelog.Event) {
		t.Helper()
		if _, _, err := e.IngestBatch(evs); err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	ce := func(bank, sec int) mcelog.Event {
		ev := uerAt(testBank(bank), 10+sec, sec)
		ev.Class = ecc.ClassCE
		return ev
	}
	ingest(ce(1, 1), ce(2, 2), ce(2, 3), ce(2, 4), ce(5, 5), ce(1, 6))
	assertTotalsMatchRecount(t, "stored banks", e)
	if st := e.Stats(); st.SessionsQuiet != 3 || st.FeatureStateBytes != int64(6*nodeBytes) {
		t.Fatalf("three stored banks, six observations: %+v", st)
	}
	ingest(uerAt(testBank(1), 40, 7), uerAt(testBank(2), 40, 8))
	assertTotalsMatchRecount(t, "after a promotion and a promotion that panicked", e)
	st := e.Stats()
	if st.Quarantined != 1 || st.SessionsDegraded != 1 || st.SessionsLive != 3 || st.Processed != 8 {
		t.Fatalf("one quarantined promotion: %+v", st)
	}
	if bank, _ := e.Session(testBank(2)); !bank.Degraded || bank.Events != 3 || bank.UEREvents != 0 {
		t.Errorf("the poisoned bank: %+v", bank)
	}
	if bank, _ := e.Session(testBank(1)); bank.Degraded || bank.Events != 3 || bank.UEREvents != 1 {
		t.Errorf("the healthy promoted bank: %+v", bank)
	}
	if text, err := os.ReadFile(dead); err != nil || strings.Count(string(text), "\n") != 1 || !strings.Contains(string(text), "cannot resume a poisoned log") {
		t.Errorf("dead-letter file: %q, %v", text, err)
	}
	ingest(ce(2, 9), uerAt(testBank(2), 41, 10), ce(5, 11)) // a degraded bank only counts
	assertTotalsMatchRecount(t, "after events on the degraded bank", e)
	if bank, _ := e.Session(testBank(2)); bank.Events != 5 || e.Stats().Quarantined != 1 {
		t.Errorf("the degraded bank after two more events: %+v", bank)
	}
}

// TestMetricsScrapeAllocs pins what one /metrics render costs on a live
// engine's registry (counters, gauge functions over the shard totals, the
// latency histograms): with the exposition appended into the registry's
// reused buffer, a warmed scrape allocates nothing (measured 0; the bound of 5
// leaves room for a gauge function that does) where a fmt.Fprintf per line
// made 597 allocations for these 169 lines.
func TestMetricsScrapeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	e := newTestEngine(t, Config{Models: newFakeModels(1), Shards: 2})
	t.Cleanup(func() { e.Close() })
	if _, _, err := e.IngestBatch(quietFleet(2000)); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	var scrape strings.Builder
	if err := e.Metrics().WriteText(&scrape); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(scrape.String(), "\n"); lines < 100 {
		t.Fatalf("the engine's exposition has %d lines: too small to measure", lines)
	}
	allocs := testing.AllocsPerRun(20, func() { _ = e.Metrics().WriteText(io.Discard) })
	t.Logf("%d exposition lines, %v allocations per warmed render", strings.Count(scrape.String(), "\n"), allocs)
	if allocs > 5 {
		t.Errorf("a warmed /metrics render allocates %v times, want <= 5", allocs)
	}
}
