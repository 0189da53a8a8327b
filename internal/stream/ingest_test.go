package stream

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/wal"
)

// TestDurableBatchAllocs: a warmed journaled IngestBatch that touches two
// shards allocates at most the group-commit window's struct and channel. It
// holds both shards' ingest locks to its return, released by one deferred
// call: a defer per locked shard inside the loop heap-allocates a record for
// each. The consumers are held at their first event, so their work stays out
// of the count.
func TestDurableBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	gate := make(chan struct{})
	cfg := durCfg(t.TempDir(), 2, &fakeStrategy{budget: 3, gate: gate})
	cfg.Durability.Sync = wal.SyncAlways
	cfg.QueueDepth = 1 << 12
	e := newTestEngine(t, cfg)
	defer e.Close()
	defer close(gate)
	var batch []mcelog.Event
	seen := map[int]bool{}
	for i := 0; len(batch) < 2; i++ {
		bank := testBank(i)
		if si := e.shardIndex(bank.BankKey()); !seen[si] {
			seen[si] = true
			batch = append(batch, uerAt(bank, 1, i))
		}
	}
	ingest := func() {
		if accepted, _, err := e.IngestBatch(batch); err != nil || accepted != len(batch) {
			t.Fatalf("accepted %d of %d: %v", accepted, len(batch), err)
		}
	}
	ingest()
	if allocs := testing.AllocsPerRun(100, ingest); allocs > 2 {
		t.Errorf("a journaled batch over 2 shards made %.1f allocations, want at most 2 (the commit window)", allocs)
	}
}

// TestIngestScratchReused: sequential IngestBatch calls, each from a fresh
// goroutine and with two collections before it, build one working set in
// total: the producer gets back the one it released, on whatever P it lands
// and however often the collector runs. The free list holds that one set
// after every call.
func TestIngestScratchReused(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	e := newTestEngine(t, Config{Shards: 2})
	defer e.Close()
	batch := []mcelog.Event{uerAt(testBank(1), 1, 1), uerAt(testBank(2), 2, 2)}
	var first *batchScratch
	for i := range 10 {
		runtime.GC()
		runtime.GC()
		done := make(chan struct{})
		go func() {
			defer close(done)
			if _, _, err := e.IngestBatch(batch); err != nil {
				t.Error(err)
			}
		}()
		<-done
		if n := len(e.scratch); n != 1 {
			t.Fatalf("after %d batches the free list holds %d working sets, want 1", i+1, n)
		}
		if first = cmp.Or(first, e.scratch[0]); e.scratch[0] != first {
			t.Fatalf("batch %d built a working set of its own", i+1)
		}
	}
}

// TestIngestScratchKeepsPeak: more batches in flight than there are Ps (a
// producer keeps its set while it blocks on a full ring, a shard's ingestMu
// or the fsync) all get their sets back on the free list, and the producers
// that come after build none.
func TestIngestScratchKeepsPeak(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := newTestEngine(t, Config{Shards: 2})
	defer e.Close()
	const inFlight = 4
	held := make([]*batchScratch, inFlight)
	for i := range held {
		held[i] = e.takeScratch()
	}
	for _, sc := range held {
		e.releaseScratch(sc)
	}
	batch := []mcelog.Event{uerAt(testBank(1), 1, 1), uerAt(testBank(2), 2, 2)}
	for range 3 {
		if _, _, err := e.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(e.scratch); n != inFlight {
		t.Fatalf("the free list holds %d working sets after %d were in flight, want %d", n, inFlight, inFlight)
	}
	for _, sc := range e.scratch {
		if !slices.Contains(held, sc) {
			t.Fatal("a later batch built a working set of its own")
		}
	}
}

// TestDurableDropNeverResurrects: on a journaled engine under IngestDrop,
// admission comes before the append — an event shed at a full queue is
// never journaled, so a restart replays exactly what was accepted. Both
// ingest shapes, against consumers held at their first event.
func TestDurableDropNeverResurrects(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	cfg := durCfg(dir, 2, &fakeStrategy{budget: 3, gate: gate})
	cfg.Policy = IngestDrop
	cfg.QueueDepth = 8
	e := newTestEngine(t, cfg)
	var events []mcelog.Event
	for i := 0; i < 80; i++ {
		events = append(events, uerAt(testBank(i%4), i, i))
	}
	accepted, dropped, err := e.IngestBatch(events[:40])
	if err != nil {
		t.Fatal(err)
	}
	if accepted+dropped != 40 || dropped == 0 {
		t.Fatalf("batch of 40 into two queues of 8: accepted %d, dropped %d", accepted, dropped)
	}
	batchDropped := dropped
	for _, ev := range events[40:] {
		switch err := e.Ingest(ev); {
		case err == nil:
			accepted++
		case errors.Is(err, ErrDropped):
			dropped++
		default:
			t.Fatal(err)
		}
	}
	if accepted+dropped != 80 || dropped == batchDropped {
		t.Fatalf("accepted %d, dropped %d: the singles shed nothing", accepted, dropped)
	}
	close(gate) // a held consumer holds its shard's lock, which Stats takes
	st := e.Stats()
	if st.WALAppended != uint64(accepted) || st.Dropped != uint64(dropped) || st.Ingested != uint64(accepted) {
		t.Fatalf("journaled %d, ingested %d, dropped %d; want %d accepted, %d dropped",
			st.WALAppended, st.Ingested, st.Dropped, accepted, dropped)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	re := newTestEngine(t, durCfg(dir, 2, nil))
	defer re.Close()
	if got := re.Stats().RecoveredEvents; got != uint64(accepted) {
		t.Fatalf("replayed %d events, accepted %d: a shed event was journaled", got, accepted)
	}
}

// TestConcurrentJournaledIngestQueuesInLSNOrder: producers racing on a
// journaled engine, in both ingest shapes. Within every shard, queue order
// must be LSN order — replay reproduces what the consumer saw only if it is.
// The consumers are held at their first event, so the queues can be read.
func TestConcurrentJournaledIngestQueuesInLSNOrder(t *testing.T) {
	gate := make(chan struct{})
	cfg := durCfg(t.TempDir(), 4, &fakeStrategy{budget: 3, gate: gate})
	cfg.QueueDepth = 4096
	e := newTestEngine(t, cfg)
	const producers, perProducer = 4, 600
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var events []mcelog.Event
			for i := 0; i < perProducer; i++ {
				events = append(events, uerAt(testBank((p+i)%16), i, i))
			}
			for len(events) > 0 {
				n := min(len(events), 1+(len(events)*7+p)%40) // singles and batches of up to 40
				var err error
				if n == 1 {
					err = e.Ingest(events[0])
				} else {
					_, _, err = e.IngestBatch(events[:n])
				}
				if err != nil {
					t.Error(err)
					return
				}
				events = events[n:]
			}
		}(p)
	}
	wg.Wait()
	queued := 0
	for si, s := range e.shards {
		s.in.mu.Lock()
		var last uint64
		for i := 0; i < s.in.n; i++ {
			q := s.in.buf[(s.in.head+i)%len(s.in.buf)]
			if q.lsn <= last {
				t.Errorf("shard %d: LSN %d queued behind LSN %d", si, q.lsn, last)
			}
			last = q.lsn
		}
		queued += s.in.n
		s.in.mu.Unlock()
	}
	// Each held consumer took at most one drain round off its queue.
	if total := producers * perProducer; queued > total || queued < total-len(e.shards)*consumerBatch {
		t.Errorf("%d events still queued of %d ingested", queued, total)
	}
	close(gate)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.WALAppended != producers*perProducer || st.Processed != st.Ingested {
		t.Errorf("journaled %d, ingested %d, processed %d; want %d", st.WALAppended, st.Ingested, st.Processed, producers*perProducer)
	}
}

// TestServerJSONLDurableBatchesAppends: JSONL lines reach the journal in
// chunks of mcelog.DefaultFrameEvents, so 3 000 lines on a SyncAlways node
// cost three appends and fsyncs — not 3 000 — while malformed lines mixed
// in are still refused one by one, under their own line numbers.
func TestServerJSONLDurableBatchesAppends(t *testing.T) {
	cfg := durCfg(t.TempDir(), 2, nil)
	cfg.Durability.Sync = wal.SyncAlways
	cfg.QueueDepth = 4096
	e := newTestEngine(t, cfg)
	defer e.Close()
	srv := NewServer(e, ServerConfig{})

	var events []mcelog.Event
	for i := 0; i < 3000; i++ {
		events = append(events, uerAt(testBank(i%16), i%1000, i))
	}
	good := strings.Split(strings.TrimSuffix(jsonlBody(t, events...).String(), "\n"), "\n")
	outside := uerAt(testBank(1), e.Config().Geometry.RowsPerBank, 0)
	var lines []string
	lines = append(lines, good[:1]...)
	lines = append(lines, "not json") // line 2
	lines = append(lines, good[1:2000]...)
	lines = append(lines, strings.TrimSpace(jsonlBody(t, outside).String())) // line 2002
	lines = append(lines, good[2000:]...)
	lines = append(lines, `{"time":"2026-01-01T00:00:00Z","addr":"n0.u0.h0.s0.c0.p0.g0.b0.r1.col1","class":"WAT"}`) // line 3003

	before := metricValue(t, scrapeMetrics(t, srv), "cordial_wal_fsyncs_total")
	res := post(t, srv, bytes.NewBufferString(strings.Join(lines, "\n")+"\n"))
	fsyncs := metricValue(t, scrapeMetrics(t, srv), "cordial_wal_fsyncs_total") - before
	if fsyncs > 4 {
		t.Errorf("3000 JSONL lines cost %v fsyncs, want one per chunk of %d (<= 4)", fsyncs, mcelog.DefaultFrameEvents)
	}
	wantErrors := []string{
		"line 2: mcelog: decoding event: invalid character 'o' in literal null (expecting 'u')",
		fmt.Sprintf("line 2002: mcelog: event address: hbm: row index %d out of range [0,%[1]d)", e.Config().Geometry.RowsPerBank),
		`line 3003: mcelog: ecc: unknown error class "WAT"`,
	}
	if res.Accepted != 3000 || res.Rejected != 3 || res.Dropped != 0 || res.Truncated || !reflect.DeepEqual(res.Errors, wantErrors) {
		t.Fatalf("result %+v\nwant 3000 accepted, 3 rejected with errors %q", res, wantErrors)
	}
	if st := e.Stats(); st.WALAppended != 3000 {
		t.Fatalf("journaled %d events, want 3000", st.WALAppended)
	}
}

// TestLogFileIsWireBody: a log file is a wire body. What Log.WriteWire
// writes POSTs to /v1/events.bin with every event accepted and reads back
// through ReadLog equal; cut mid-frame, the file still yields the frames
// before the cut, and says so.
func TestLogFileIsWireBody(t *testing.T) {
	var events []mcelog.Event
	for i := 0; i < 2500; i++ { // three frames
		ev := uerAt(testBank(i%16), i%1000, i)
		ev.Bits = mcelog.MakeErrBits(uint8(i), uint8(i>>8))
		events = append(events, ev)
	}
	var file bytes.Buffer
	if err := mcelog.FromEvents(events).WriteWire(hbm.HBM2E, &file); err != nil {
		t.Fatal(err)
	}

	engine, srv := newTestServer(t, Config{Shards: 2, QueueDepth: 4096})
	res := postBin(t, srv, bytes.NewBuffer(file.Bytes()), http.StatusOK)
	if res.Accepted != len(events) || res.Rejected != 0 {
		t.Fatalf("posted file: %+v, want all %d accepted", res, len(events))
	}
	feed(t, engine)

	log, err := mcelog.ReadLog(hbm.HBM2E, bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(log.Events(), events) {
		t.Fatal("file read back differs from what was written")
	}

	log, err = mcelog.ReadLog(hbm.HBM2E, bytes.NewReader(file.Bytes()[:file.Len()-100]))
	if !errors.Is(err, mcelog.ErrWireFrame) {
		t.Fatalf("torn file error = %v, want ErrWireFrame", err)
	}
	if want := 2 * mcelog.DefaultFrameEvents; log.Len() != want || !reflect.DeepEqual(log.Events(), events[:want]) {
		t.Fatalf("torn file kept %d events, want the two whole frames (%d)", log.Len(), want)
	}
}

// TestIngestCodecParity: the two HTTP codecs share one request body past
// the decoder, so the same events leave the same engine behind and the
// same counts in the response, on in-memory and journaled engines under
// both policies — down to the consumed-prefix index when a bank this node
// does not own sits mid-chunk. Only the position in a message is the
// codec's own: "line N" for JSONL, "frame N record M" for wire frames.
func TestIngestCodecParity(t *testing.T) {
	mine, theirs := testBank(1), testBank(2)
	// Position 2 (0-based) is refused by validation; position 6 is the
	// other node's; what follows it must not land.
	events := []mcelog.Event{
		uerAt(mine, 1, 1), uerAt(testBank(3), 1, 2), uerAt(mine, 32768, 3), uerAt(mine, 2, 4),
		uerAt(testBank(5), 1, 5), uerAt(mine, 3, 6), uerAt(theirs, 1, 7), uerAt(mine, 4, 8),
	}
	type outcome struct {
		status   int
		res      IngestResult
		sessions []SessionStats
	}
	run := func(t *testing.T, durable bool, policy IngestPolicy, binary, fenced bool) outcome {
		cfg := Config{Shards: 3, Policy: policy, Strategy: &fakeStrategy{budget: 3}}
		if durable {
			cfg = durCfg(t.TempDir(), 3, nil)
			cfg.Policy = policy
		}
		e := newTestEngine(t, cfg)
		defer e.Close()
		srv := NewServer(e, ServerConfig{})
		if fenced {
			srv.SetOwnership(7, func(key uint64) bool { return key != theirs.BankKey() })
		}
		path, body := "/v1/events", jsonlBody(t, events...)
		if binary {
			path, body = "/v1/events.bin", binBody(t, 0, events...)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", path, body))
		out := outcome{status: rec.Code}
		if err := json.Unmarshal(rec.Body.Bytes(), &out.res); err != nil {
			t.Fatal(err)
		}
		feed(t, e)
		out.sessions = e.Sessions()
		return out
	}
	const refusal = "mcelog: event address: hbm: row index 32768 out of range [0,32768)"
	for _, durable := range []bool{false, true} {
		for _, policy := range []IngestPolicy{IngestBlock, IngestDrop} {
			for _, fenced := range []bool{false, true} {
				name := fmt.Sprintf("durable=%v/%v/fenced=%v", durable, policy, fenced)
				t.Run(name, func(t *testing.T) {
					jsonl := run(t, durable, policy, false, fenced)
					bin := run(t, durable, policy, true, fenced)
					if got, want := jsonl.res.Errors, []string{"line 3: " + refusal}; !reflect.DeepEqual(got, want) {
						t.Errorf("JSONL errors %q, want %q", got, want)
					}
					if got, want := bin.res.Errors, []string{"frame 1 record 2: " + refusal}; !reflect.DeepEqual(got, want) {
						t.Errorf("binary errors %q, want %q", got, want)
					}
					jsonl.res.Errors, bin.res.Errors = nil, nil
					if jsonl.status != bin.status || !reflect.DeepEqual(jsonl.res, bin.res) {
						t.Fatalf("JSONL answered %d %+v, binary %d %+v", jsonl.status, jsonl.res, bin.status, bin.res)
					}
					if !reflect.DeepEqual(jsonl.sessions, bin.sessions) {
						t.Fatalf("sessions differ between codecs:\n%+v\n%+v", jsonl.sessions, bin.sessions)
					}
					want := IngestResult{Accepted: 7, Rejected: 1}
					wantStatus := http.StatusOK
					if fenced {
						// Five accepted and one rejected before the foreign
						// bank: the router resumes at index 6.
						want = IngestResult{Accepted: 5, Rejected: 1, NotOwned: 1, Epoch: 7}
						wantStatus = http.StatusServiceUnavailable
					}
					if bin.status != wantStatus || !reflect.DeepEqual(bin.res, want) {
						t.Fatalf("answered %d %+v, want %d %+v", bin.status, bin.res, wantStatus, want)
					}
				})
			}
		}
	}
}
