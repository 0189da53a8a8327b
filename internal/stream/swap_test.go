package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/mcelog"
	"cordial/internal/wal"
	"cordial/internal/xrand"
)

// fakeModels is a multi-version ModelSource over fake strategies: the swap
// tests need distinguishable versions without training real pipelines.
type fakeModels struct {
	mu       sync.Mutex
	active   uint64
	versions map[uint64]core.Strategy
}

func newFakeModels(versions ...uint64) *fakeModels {
	fm := &fakeModels{active: versions[0], versions: make(map[uint64]core.Strategy)}
	for _, v := range versions {
		fm.versions[v] = &fakeStrategy{budget: 3}
	}
	return fm
}

func (f *fakeModels) ActiveModel() (core.Strategy, uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.versions[f.active], f.active
}

func (f *fakeModels) ModelByVersion(v uint64) (core.Strategy, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.versions[v]
	if !ok {
		return nil, fmt.Errorf("fakeModels: no version %d", v)
	}
	return s, nil
}

// TestSwapModelPinsSessions: a swap changes what NEW sessions bind and
// never rebinds live ones.
func TestSwapModelPinsSessions(t *testing.T) {
	e, err := New(Config{Models: newFakeModels(1, 2), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	go func() {
		for range e.Actions() {
		}
	}()

	if v := e.ActiveModelVersion(); v != 1 {
		t.Fatalf("boot active version %d, want 1", v)
	}
	if err := e.Ingest(uerAt(testBank(0), 3, 0)); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st, ok := e.Session(testBank(0)); !ok || st.ModelVersion != 1 {
		t.Fatalf("pre-swap session version %d (ok=%v), want 1", st.ModelVersion, ok)
	}

	if _, err := e.SwapModel(2); err != nil {
		t.Fatal(err)
	}
	if v := e.ActiveModelVersion(); v != 2 {
		t.Fatalf("active version %d after swap, want 2", v)
	}
	// The old bank keeps its pin even as it keeps ingesting; a fresh bank
	// binds the new version.
	if err := e.Ingest(uerAt(testBank(0), 4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(uerAt(testBank(1), 5, 2)); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st, _ := e.Session(testBank(0)); st.ModelVersion != 1 {
		t.Fatalf("pre-swap session rebound to %d", st.ModelVersion)
	}
	if st, _ := e.Session(testBank(1)); st.ModelVersion != 2 {
		t.Fatalf("post-swap session bound %d, want 2", st.ModelVersion)
	}
	if floor := e.PinnedVersionFloor(); floor != 1 {
		t.Fatalf("pinned version floor %d, want 1", floor)
	}
	if sessions := e.Sessions(); len(sessions) != 2 {
		t.Fatalf("Sessions() returned %d entries, want 2", len(sessions))
	}
	if st := e.Stats(); st.ModelSwaps != 1 || st.ActiveModelVersion != 2 {
		t.Fatalf("stats swaps=%d active=%d, want 1/2", st.ModelSwaps, st.ActiveModelVersion)
	}

	// Swapping to a version the source cannot resolve fails cleanly and
	// changes nothing.
	if _, err := e.SwapModel(9); err == nil {
		t.Fatal("swap to unknown version succeeded")
	}
	if v := e.ActiveModelVersion(); v != 2 {
		t.Fatalf("active version %d after failed swap, want 2", v)
	}
}

// TestSwapRecordsInvisibleToExport: the journal interleaves swap records
// with events; ExportEvents must return exactly the events.
func TestSwapRecordsInvisibleToExport(t *testing.T) {
	fm := newFakeModels(1, 2, 3)
	e, err := New(Config{Models: fm, Shards: 2,
		Durability: DurabilityConfig{Dir: t.TempDir(), Sync: 0}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	go func() {
		for range e.Actions() {
		}
	}()

	const n = 40
	for i := 0; i < n; i++ {
		if i == 10 {
			if lsn, err := e.SwapModel(2); err != nil || lsn == 0 {
				t.Fatalf("durable swap: lsn=%d err=%v", lsn, err)
			}
		}
		if i == 25 {
			if _, err := e.SwapModel(3); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Ingest(uerAt(testBank(i%4), 1+i%8, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	evs, err := e.ExportEvents(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != n {
		t.Fatalf("exported %d events, want %d (swap records must be skipped)", len(evs), n)
	}
	for _, ev := range evs {
		if ev.Class != ecc.ClassUER {
			t.Fatalf("exported event with class %v", ev.Class)
		}
	}
}

// TestExportEventsRange pins the retraining feed's bounds over a journal
// that spans several segments: half-open [from, to) by LSN, the whole
// journal for to = 0, nothing for an empty range, and events that outlive
// the engine.
func TestExportEventsRange(t *testing.T) {
	cfg := durCfg(t.TempDir(), 2, nil)
	cfg.Durability.SegmentBytes = 128
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	var evs []mcelog.Event
	for i := 0; i < n; i++ {
		ev := uerAt(testBank(i%4), 1+i, i)
		evs = append(evs, ev)
		if err := e.Ingest(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if segs := e.Stats().WALSegments; segs < 2 {
		t.Fatalf("journal has %d segments, want several", segs)
	}
	mid, err := e.ExportEvents(6, 16) // LSNs 6..15: events 5..14
	if err != nil {
		t.Fatal(err)
	}
	all, err := e.ExportEvents(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	none, err := e.ExportEvents(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	drainActions(e)
	same := func(got, want []mcelog.Event) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("exported %d events, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Addr != want[i].Addr || got[i].Class != want[i].Class || !got[i].Time.Equal(want[i].Time) {
				t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	}
	same(mid, evs[5:15])
	same(all, evs)
	same(none, nil)
}

// TestCrashDuringSwapEquivalence is the mid-swap durability gate: kill the
// engine at points straddling a model swap (with and without an intervening
// snapshot) and require byte-identical recovered state, the reference
// active version, and every session re-pinned to the version it was born
// under.
func TestCrashDuringSwapEquivalence(t *testing.T) {
	r := xrand.New(77)
	const banks, n, swapAt = 8, 240, 120
	evs := make([]mcelog.Event, 0, n)
	for i := 0; i < n; i++ {
		// First half exercises banks 0..3, second half 4..7, so sessions
		// exist on both sides of the swap.
		b := r.Intn(banks / 2)
		if i >= swapAt {
			b += banks / 2
		}
		ev := uerAt(testBank(b), 1+r.Intn(8), i)
		if r.Intn(4) == 0 {
			ev.Class = ecc.ClassCE
		}
		evs = append(evs, ev)
	}

	// Reference: an uninterrupted run with the swap at the same position.
	run := func(dir string, kill, snapAt int) *Engine {
		fm := newFakeModels(1, 2)
		e, err := New(Config{Models: fm, Shards: 3,
			Durability: DurabilityConfig{Dir: dir, Sync: 0}})
		if err != nil {
			t.Fatal(err)
		}
		start := int(e.Stats().RecoveredEvents)
		for i := start; i < kill; i++ {
			if i == swapAt {
				if _, err := e.SwapModel(2); err != nil {
					t.Fatal(err)
				}
			}
			if i == snapAt {
				if err := e.Drain(10 * time.Second); err != nil {
					t.Fatal(err)
				}
				if _, err := e.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Ingest(evs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Drain(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		return e
	}

	ref := run(t.TempDir(), n, -1)
	refPayload, _, err := ref.encodeSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	wantActions := actionKeys(drainActions(ref))
	wantBody := refPayload[snapBodyOffset:]

	kills := []struct{ kill, snapAt int }{
		{swapAt - 1, -1},           // die just before the swap
		{swapAt, -1},               // die with the swap as the last record
		{swapAt + 1, -1},           // die right after the first post-swap event
		{swapAt + 40, swapAt - 5},  // snapshot before the swap, crash after
		{swapAt + 40, swapAt + 10}, // snapshot AFTER the swap (header names v2)
		{n - 10, swapAt},
	}
	for _, k := range kills {
		t.Run(fmt.Sprintf("kill=%d,snap=%d", k.kill, k.snapAt), func(t *testing.T) {
			dir := t.TempDir()
			e1 := run(dir, k.kill, k.snapAt)
			if err := e1.Close(); err != nil { // no final snapshot: a crash
				t.Fatal(err)
			}
			a1 := drainActions(e1)

			// Recover under a different shard count and finish the feed.
			// The swap record (or snapshot header) must rebind exactly.
			fm := newFakeModels(1, 2)
			e2, err := New(Config{Models: fm, Shards: 5,
				Durability: DurabilityConfig{Dir: dir, Sync: 0}})
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			wantActive := uint64(1)
			if k.kill > swapAt {
				wantActive = 2
			}
			if v := e2.ActiveModelVersion(); v != wantActive {
				t.Fatalf("recovered active version %d, want %d", v, wantActive)
			}
			for i := int(e2.Stats().RecoveredEvents); i < n; i++ {
				if i == swapAt {
					if _, err := e2.SwapModel(2); err != nil {
						t.Fatal(err)
					}
				}
				if err := e2.Ingest(evs[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := e2.Drain(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			payload, _, err := e2.encodeSnapshot(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(payload[snapBodyOffset:], wantBody) {
				t.Error("recovered state diverged from uninterrupted run")
			}
			// Every session must be pinned to the version its bank's side
			// of the swap implies (testBank(i) puts i in the Node field).
			for _, st := range e2.Sessions() {
				want := uint64(1)
				if st.Bank.Node >= banks/2 {
					want = 2
				}
				if st.ModelVersion != want {
					t.Errorf("bank %v pinned to %d, want %d", st.Bank, st.ModelVersion, want)
				}
			}
			if err := e2.Close(); err != nil {
				t.Fatal(err)
			}
			assertSameActionSet(t, actionKeys(append(a1, drainActions(e2)...)), wantActions)
		})
	}
}

// TestConcurrentSwapIngestScrape races ingest against swaps, shadow
// start/stop and stat scrapes; correctness is "no event lost, versions
// always coherent" and (under -race) the absence of data races.
func TestConcurrentSwapIngestScrape(t *testing.T) {
	e, err := New(Config{Models: newFakeModels(1, 2), Shards: 4, QueueDepth: 1024})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range e.Actions() {
		}
	}()

	const n = 4000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // swapper
		defer wg.Done()
		v := uint64(2)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.SwapModel(v); err != nil {
				t.Error(err)
				return
			}
			v = 3 - v
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() { // shadow churn
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.StartShadow(2); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
			e.StopShadow()
		}
	}()
	wg.Add(1)
	go func() { // scraper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := e.Stats()
			if st.ActiveModelVersion != 1 && st.ActiveModelVersion != 2 {
				t.Errorf("incoherent active version %d", st.ActiveModelVersion)
				return
			}
			e.ShadowStats()
			e.RecentClassMix(16)
			e.Sessions()
			e.PinnedVersionFloor()
		}
	}()

	r := xrand.New(5)
	for i := 0; i < n; i++ {
		if err := e.Ingest(uerAt(testBank(r.Intn(32)), 1+r.Intn(16), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	st := e.Stats()
	if st.Dropped != 0 {
		t.Fatalf("%d events dropped", st.Dropped)
	}
	if st.Processed != uint64(n) {
		t.Fatalf("processed %d, want %d", st.Processed, n)
	}
	for _, s := range e.Sessions() {
		if s.ModelVersion != 1 && s.ModelVersion != 2 {
			t.Fatalf("session %v pinned to impossible version %d", s.Bank, s.ModelVersion)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecentClassMixSpatial: the drift sample labels live sessions from
// their UER row geometry, independent of any model.
func TestRecentClassMixSpatial(t *testing.T) {
	e, err := New(Config{Models: newFakeModels(1), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	go func() {
		for range e.Actions() {
		}
	}()

	// Bank 0: one tight cluster (single-row / aggregation). Bank 1: rows
	// flung across the bank (scattered). Bank 2: CEs only — no UERs, so it
	// must not appear in the sample.
	for i, row := range []int{100, 140, 180} {
		if err := e.Ingest(uerAt(testBank(0), row, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, row := range []int{500, 8000, 16000, 24000, 31000} {
		if err := e.Ingest(uerAt(testBank(1), row, 10+i)); err != nil {
			t.Fatal(err)
		}
	}
	ce := uerAt(testBank(2), 50, 20)
	ce.Class = ecc.ClassCE
	if err := e.Ingest(ce); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	mix, total := e.RecentClassMix(10)
	if total != 2 {
		t.Fatalf("sampled %d banks, want 2 (CE-only bank excluded)", total)
	}
	sum := 0
	for _, n := range mix {
		sum += n
	}
	if sum != 2 {
		t.Fatalf("class counts sum to %d, want 2", sum)
	}
	// Truncation: asking for 1 keeps only the most recently active bank.
	if _, total := e.RecentClassMix(1); total != 1 {
		t.Fatalf("RecentClassMix(1) sampled %d", total)
	}
}

// fakeAdmin records admin calls for the endpoint tests.
type fakeAdmin struct {
	promoted  atomic.Uint64
	rollbacks atomic.Uint64
	trigger   atomic.Value
	fail      bool
}

func (a *fakeAdmin) Overview() any {
	return map[string]any{"activeVersion": 7}
}

func (a *fakeAdmin) Promote(v uint64) error {
	if a.fail {
		return fmt.Errorf("no candidate")
	}
	a.promoted.Store(v)
	return nil
}

func (a *fakeAdmin) Rollback() error {
	a.rollbacks.Add(1)
	return nil
}

func (a *fakeAdmin) Retrain(trigger string) error {
	a.trigger.Store(trigger)
	return nil
}

// TestServerModelAdminEndpoints covers the /v1/models surface and the
// model fields added to /statsz and /v1/banks.
func TestServerModelAdminEndpoints(t *testing.T) {
	e, err := New(Config{Models: newFakeModels(1, 2), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	admin := &fakeAdmin{}
	srv := NewServer(e, ServerConfig{ModelAdmin: admin})

	do := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		srv.ServeHTTP(rec, req)
		return rec
	}

	if rec := do("GET", "/v1/models", ""); rec.Code != 200 ||
		!strings.Contains(rec.Body.String(), `"activeVersion": 7`) {
		t.Fatalf("GET /v1/models: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do("POST", "/v1/models/promote", `{"version":3}`); rec.Code != 200 {
		t.Fatalf("promote: %d %s", rec.Code, rec.Body.String())
	}
	if v := admin.promoted.Load(); v != 3 {
		t.Fatalf("promote forwarded version %d, want 3", v)
	}
	if rec := do("POST", "/v1/models/promote", ""); rec.Code != 200 {
		t.Fatalf("empty-body promote: %d", rec.Code)
	}
	if v := admin.promoted.Load(); v != 0 {
		t.Fatalf("empty-body promote forwarded %d, want 0 (candidate)", v)
	}
	if rec := do("POST", "/v1/models/promote", `{"version":`); rec.Code != 400 {
		t.Fatalf("bad body: %d", rec.Code)
	}
	if rec := do("POST", "/v1/models/rollback", ""); rec.Code != 200 {
		t.Fatalf("rollback: %d", rec.Code)
	}
	if admin.rollbacks.Load() != 1 {
		t.Fatal("rollback not forwarded")
	}
	if rec := do("POST", "/v1/models/retrain", `{"trigger":"ops"}`); rec.Code != 202 {
		t.Fatalf("retrain: %d", rec.Code)
	}
	if tr, _ := admin.trigger.Load().(string); tr != "ops" {
		t.Fatalf("retrain trigger %q, want ops", tr)
	}
	if rec := do("POST", "/v1/models/retrain", ""); rec.Code != 202 {
		t.Fatalf("default retrain: %d", rec.Code)
	}
	if tr, _ := admin.trigger.Load().(string); tr != "manual" {
		t.Fatalf("default trigger %q, want manual", tr)
	}
	admin.fail = true
	if rec := do("POST", "/v1/models/promote", ""); rec.Code != 409 {
		t.Fatalf("refused promote: %d, want 409", rec.Code)
	}

	// Model fields on the existing surfaces: session pin in /v1/banks and
	// active version / per-version counts / shadow block in /statsz.
	if err := e.Ingest(uerAt(testBank(0), 3, 0)); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SwapModel(2); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(uerAt(testBank(1), 3, 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	rec := do("GET", "/v1/banks/"+testBank(0).String(), "")
	var sess struct {
		ModelVersion uint64 `json:"modelVersion"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sess); err != nil {
		t.Fatal(err)
	}
	if sess.ModelVersion != 1 {
		t.Fatalf("bank 0 modelVersion %d, want 1", sess.ModelVersion)
	}

	rec = do("GET", "/statsz", "")
	var stats struct {
		ActiveModelVersion uint64         `json:"activeModelVersion"`
		ModelSwaps         uint64         `json:"modelSwaps"`
		ByVersion          map[string]int `json:"sessionsByModelVersion"`
		Shadow             map[string]any `json:"shadow"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.ActiveModelVersion != 2 || stats.ModelSwaps != 1 {
		t.Fatalf("statsz active=%d swaps=%d, want 2/1", stats.ActiveModelVersion, stats.ModelSwaps)
	}
	if stats.ByVersion["1"] != 1 || stats.ByVersion["2"] != 1 {
		t.Fatalf("sessionsByModelVersion = %v", stats.ByVersion)
	}
	if stats.Shadow == nil {
		t.Fatal("statsz missing shadow block")
	}

	// Without an admin the routes 404.
	bare := NewServer(e, ServerConfig{})
	rec = httptest.NewRecorder()
	bare.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/models", nil))
	if rec.Code != 404 {
		t.Fatalf("GET /v1/models without admin: %d, want 404", rec.Code)
	}
}

// BenchmarkModelSwap measures the swap pause — the window SwapModel holds
// every shard's intake lock while journaling the swap record — over an
// engine with live sessions. ns/op is the mean pause; the p99 rides along
// as a custom metric (DESIGN §13 quotes both).
func BenchmarkModelSwap(b *testing.B) {
	e, err := New(Config{Models: newFakeModels(1, 2), Shards: 4,
		Logger:     slog.New(slog.DiscardHandler),
		Durability: DurabilityConfig{Dir: b.TempDir(), Sync: wal.SyncNever}})
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		for range e.Actions() {
		}
	}()
	r := xrand.New(3)
	for i := 0; i < 256; i++ {
		if err := e.Ingest(uerAt(testBank(i), 1+r.Intn(16), i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Drain(30 * time.Second); err != nil {
		b.Fatal(err)
	}

	durs := make([]time.Duration, 0, b.N)
	v := uint64(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := e.SwapModel(v); err != nil {
			b.Fatal(err)
		}
		durs = append(durs, time.Since(t0))
		v = 3 - v
	}
	b.StopTimer()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	p99 := durs[len(durs)*99/100]
	if len(durs)*99/100 >= len(durs) {
		p99 = durs[len(durs)-1]
	}
	b.ReportMetric(float64(p99.Nanoseconds()), "p99-pause-ns")
	if err := e.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkShadowOverhead measures what a live shadow evaluation adds to
// the per-event ingest path: every bank gets a candidate twin, so each
// event is folded twice. Compare the on/off sub-benchmarks' ns/event.
func BenchmarkShadowOverhead(b *testing.B) {
	for _, shadowOn := range []bool{false, true} {
		name := "off"
		if shadowOn {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			e, err := New(Config{Models: newFakeModels(1, 2), Shards: 4,
				QueueDepth: 4096, Logger: slog.New(slog.DiscardHandler)})
			if err != nil {
				b.Fatal(err)
			}
			go func() {
				for range e.Actions() {
				}
			}()
			if shadowOn {
				if err := e.StartShadow(2); err != nil {
					b.Fatal(err)
				}
			}
			r := xrand.New(9)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Ingest(uerAt(testBank(r.Intn(64)), 1+r.Intn(16), i)); err != nil {
					b.Fatal(err)
				}
			}
			if err := e.Drain(60 * time.Second); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
			if err := e.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
