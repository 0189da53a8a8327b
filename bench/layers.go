package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cordial/internal/cluster"
	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/faultsim"
	"cordial/internal/features"
	"cordial/internal/mcelog"
	"cordial/internal/obs"
	"cordial/internal/stream"
	"cordial/internal/wal"
)

// This file is the traced run: the per-layer ledger. Every number is taken
// from outside a layer, by timing calls into its exported functions on the
// workload's own events. Spans inside the program are a later issue.

// perItem runs fn reps times and returns the median cost per item in ns.
func perItem(reps, items int, fn func()) float64 {
	costs := make([]float64, reps)
	for i := range costs {
		t0 := time.Now()
		fn()
		costs[i] = float64(time.Since(t0)) / float64(items)
	}
	return quantile(costs, 0.5)
}

const probeReps = 5

// sink keeps the compiler from discarding probe loops.
var sink uint64

// probeInput is what the layer probes need of a workload.
type probeInput struct {
	pipe        *core.Pipeline
	strategy    core.Strategy
	trainFaults []*faultsim.BankFault
	events      []mcelog.Event
	wire        []byte
}

// probeCodecs times the wire codec, validation, the JSONL parser and the
// bank-key derivation over the workload's events.
func probeCodecs(m map[string]float64, p probeInput) error {
	n := len(p.events)
	dec := mcelog.NewFrameDecoder(nil)
	var decErr error
	m["mcelog.decode_ns_per_event"] = perItem(probeReps, n, func() {
		dec.Reset(bytes.NewReader(p.wire))
		for {
			fr, err := dec.Next()
			if err != nil {
				if err != io.EOF {
					decErr = err
				}
				return
			}
			for i, k := 0, fr.Len(); i < k; i++ {
				sink += uint64(fr.Event(i).Addr.Row)
			}
		}
	})
	if decErr != nil {
		return decErr
	}
	m["mcelog.wire_bytes_per_event"] = float64(len(p.wire)) / float64(n)
	m["mcelog.validate_ns_per_event"] = perItem(probeReps, n, func() {
		for _, e := range p.events {
			if e.Validate(geo) != nil {
				sink++
			}
		}
	})
	m["hbm.bankkey_ns_per_event"] = perItem(probeReps, n, func() {
		for _, e := range p.events {
			sink += e.Addr.BankKey()
		}
	})
	lines := make([][]byte, min(n, 50_000))
	for i := range lines {
		line, err := mcelog.MarshalJSONEvent(p.events[i])
		if err != nil {
			return err
		}
		lines[i] = line
	}
	var parseErr error
	m["mcelog.jsonl_parse_ns_per_event"] = perItem(probeReps, len(lines), func() {
		for _, l := range lines {
			if _, err := mcelog.ParseJSONEvent(l); err != nil {
				parseErr = err
			}
		}
	})
	return parseErr
}

// probeSessions reports the single-threaded baseline: bare strategy
// sessions, no engine. It repeats the reference replay, because the first
// one ran on a cold heap beside the set-up's garbage collection.
func probeSessions(m map[string]float64, p probeInput) {
	n := float64(len(p.events))
	ref := buildReference(p.strategy, p.events)
	m["core.session_ns_per_event"] = float64(ref.sessionTime) / n
	m["core.session_cpu_ns_per_event"] = float64(ref.cpu) / n
	m["core.session_new_ns"] = float64(ref.newTime) / float64(ref.sessions)
	m["core.single_thread_events_per_s"] = n / (ref.newTime + ref.sessionTime).Seconds()
	m["core.predict_calls_per_kevent"] = 1000 * float64(ref.predictCalls) / n
}

// probeFeatures replays every bank into a fresh BankState, timing Observe,
// then times the vector builders and the two model stages on the banks that
// have reached the pattern stage's UER budget.
func probeFeatures(m map[string]float64, p probeInput) error {
	type replayed struct {
		st     *features.BankState
		anchor int
		now    time.Time
	}
	var ready []replayed
	var observe time.Duration
	var stateBytes, banks int
	budget, spec := p.pipe.Config().Pattern.UERBudget, p.pipe.Config().Block
	order, perBank := groupByBank(p.events)
	for _, k := range order {
		st, err := p.pipe.NewBankState()
		if err != nil {
			return err
		}
		anchor := -1
		t0 := time.Now()
		for _, i := range perBank[k] {
			st.Observe(p.events[i])
		}
		observe += time.Since(t0)
		for _, i := range perBank[k] {
			if e := p.events[i]; e.Class == ecc.ClassUER {
				anchor = e.Addr.Row
			}
		}
		stateBytes += st.Footprint().ApproxBytes
		banks++
		if st.DistinctUERRows() >= budget && len(ready) < 2000 {
			idx := perBank[k]
			ready = append(ready, replayed{st, anchor, p.events[idx[len(idx)-1]].Time})
		}
	}
	m["features.observe_ns_per_event"] = float64(observe) / float64(len(p.events))
	m["features.state_bytes_per_bank"] = float64(stateBytes) / float64(banks)
	if len(ready) == 0 {
		return nil
	}
	var pattern, block, classify, predict []float64
	for _, r := range ready {
		t0 := time.Now()
		if _, err := r.st.PatternVector(); err != nil {
			return err
		}
		t1 := time.Now()
		for b := 0; b < spec.NumBlocks(); b++ {
			if _, err := r.st.BlockVector(r.anchor, b, r.now); err != nil {
				return err
			}
		}
		t2 := time.Now()
		if _, err := p.pipe.ClassifyPatternState(r.st); err != nil {
			return err
		}
		t3 := time.Now()
		if _, err := p.pipe.PredictBlocksState(r.st, r.anchor, r.now); err != nil {
			return err
		}
		t4 := time.Now()
		pattern = append(pattern, float64(t1.Sub(t0))/1e3)
		block = append(block, float64(t2.Sub(t1))/1e3/float64(spec.NumBlocks()))
		classify = append(classify, float64(t3.Sub(t2))/1e3)
		predict = append(predict, float64(t4.Sub(t3))/1e3)
	}
	m["features.pattern_vector_us"] = quantile(pattern, 0.5)
	m["features.block_vector_us"] = quantile(block, 0.5)
	m["core.classify_us"] = quantile(classify, 0.5)
	m["core.predict_blocks_us"] = quantile(predict, 0.5)
	return nil
}

type countWriter int

func (c *countWriter) Write(p []byte) (int, error) { *c += countWriter(len(p)); return len(p), nil }

// probeModel refits the pipeline's block model from outside (same data,
// same seed) to time flat-tree inference on session-sized and on bulk
// batches, and sizes the saved model. It returns the stage times of the
// refit for train_eval's ledger.
func probeModel(m map[string]float64, p probeInput, tr *tracer) (dataset, fitBlock time.Duration, err error) {
	cfg := p.pipe.Config()
	sp := tr.begin("core.block_dataset", 0, -1)
	t0 := time.Now()
	ds, err := core.BuildBlockDataset(p.trainFaults, cfg.Block, cfg.Pattern.UERBudget)
	if err != nil {
		return 0, 0, err
	}
	dataset = time.Since(t0)
	tr.end(sp)
	model, err := core.NewModel(cfg.Model, cfg.Params, cfg.Seed+1)
	if err != nil {
		return 0, 0, err
	}
	sp = tr.begin("mltree.fit_block", 0, -1)
	t0 = time.Now()
	if err := model.Fit(ds); err != nil {
		return 0, 0, err
	}
	fitBlock = time.Since(t0)
	tr.end(sp)
	rows := ds.Features
	m["mltree.predict16_ns_per_row"] = perItem(probeReps, len(rows)/16*16, func() {
		for i := 0; i+16 <= len(rows); i += 16 {
			sink += uint64(len(model.PredictBatch(rows[i : i+16])))
		}
	})
	m["mltree.predict_bulk_ns_per_row"] = perItem(probeReps, len(rows), func() {
		sink += uint64(len(model.PredictBatch(rows)))
	})
	var size countWriter
	if err := p.pipe.SaveModels(&size); err != nil {
		return 0, 0, err
	}
	m["core.model_bytes"] = float64(size)
	return dataset, fitBlock, nil
}

// sampler reads the engine's operator surfaces at 10 Hz while a pass
// ingests: reads beside writes.
type sampler struct {
	stop     chan struct{}
	done     chan struct{}
	statsUS  []float64
	scrapeUS []float64
	queueMax int
}

func startSampler(e *stream.Engine) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			st := e.Stats()
			t1 := time.Now()
			_ = e.Metrics().WriteText(io.Discard) // io.Discard never fails
			s.statsUS = append(s.statsUS, float64(t1.Sub(t0))/1e3)
			s.scrapeUS = append(s.scrapeUS, float64(time.Since(t1))/1e3)
			for _, d := range st.QueueDepths {
				s.queueMax = max(s.queueMax, d)
			}
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

// tracedPairs is how many untraced/traced pass pairs the traced run
// alternates to measure its own overhead.
const tracedPairs = 4

// traced is the traced run of a serving workload.
func (s servingSpec) traced(o options) (*result, error) {
	r, err := s.prepare(o, 1)
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64)
	tr := newTracer()
	n := float64(r.in.events)

	var plain, withSpans, cpu []float64
	var gcCycles, gcPause float64
	var smp *sampler
	var lastStats stream.EngineStats
	sampled := func(e *stream.Engine) func() { smp = startSampler(e); return smp.finish }
	for i := 0; i <= 2*tracedPairs; i++ { // warm-up, then untraced and traced passes in turn
		var ptr *tracer
		var during func(*stream.Engine) func()
		if i > 0 && i%2 == 0 {
			ptr, during = tr, sampled
			tr.setBase(i)
		}
		ps, err := s.runPass(r.in, o.walDir(i), 0, 0, ptr, during)
		if err != nil {
			return nil, err
		}
		r.account(ps)
		switch {
		case i == 0:
		case ptr == nil:
			plain = append(plain, n/ps.wall.Seconds())
			cpu = append(cpu, float64(ps.cpu)/n)
			gcCycles += float64(ps.gcCycles) / tracedPairs
			gcPause += float64(ps.gcPause) / 1e6 / tracedPairs
		default:
			withSpans = append(withSpans, n/ps.wall.Seconds())
			lastStats = ps.engine.Stats()
		}
	}
	passes := float64(tracedPairs)
	m["stream.ingest_batch_ns_per_event"] = float64(tr.total("stream.ingest")) / n / passes
	m["stream.drain_s"] = tr.total("stream.drain").Seconds() / passes
	m["stream.ingest_wait_p50_us"] = float64(lastStats.IngestWait.P50) / 1e3
	m["stream.ingest_wait_p99_us"] = float64(lastStats.IngestWait.P99) / 1e3
	m["stream.process_p50_us"] = float64(lastStats.Process.P50) / 1e3
	m["stream.process_p99_us"] = float64(lastStats.Process.P99) / 1e3
	m["stream.actions_emitted"] = float64(lastStats.ActionsEmitted)
	m["stream.actions_dropped"] = float64(lastStats.ActionsDropped)
	var skewMax, skewSum float64
	for _, b := range lastStats.ShardStateBytes {
		skewMax, skewSum = max(skewMax, float64(b)), skewSum+float64(b)
	}
	if skewSum > 0 {
		m["stream.shard_skew"] = skewMax/(skewSum/float64(len(lastStats.ShardStateBytes))) - 1
	}
	m["stream.queue_depth_max"] = float64(smp.queueMax)
	m["stream.stats_call_us"] = quantile(smp.statsUS, 0.5)
	m["obs.scrape_us"] = quantile(smp.scrapeUS, 0.5)
	m["bench.gc_cycles_per_pass"] = gcCycles
	m["bench.gc_pause_ms_per_pass"] = gcPause
	m["bench.pass_spread_pct"] = 100 * (quantile(plain, 0.75) - quantile(plain, 0.25)) / quantile(plain, 0.5)
	m["bench.trace_overhead_pct"] = 100 * (quantile(plain, 0.5) - quantile(withSpans, 0.5)) / quantile(plain, 0.5)

	tr.setBase(2*tracedPairs + 1)
	if err := s.pacedPhase(r, o, time.Duration(o.seconds)*time.Second/2, tr); err != nil {
		return nil, err
	}
	m["stream.events_per_s"] = betterQuartile(plain, true)
	m["stream.verdict_p50_us"] = quantile(r.latencies, 0.5)
	m["stream.verdict_p99_us"] = quantile(r.latencies, 0.99)
	m["bench.loadgen_late_p50_us"] = quantile(r.paced.late, 0.5)
	m["bench.loadgen_late_p99_us"] = quantile(r.paced.late, 0.99)

	p := probeInput{pipe: r.in.pipe, strategy: r.in.strategy, trainFaults: r.in.trainFaults, events: r.events, wire: r.in.wire}
	if err := probeCodecs(m, p); err != nil {
		return nil, err
	}
	probeSessions(m, p)
	if err := probeFeatures(m, p); err != nil {
		return nil, err
	}
	if _, _, err := probeModel(m, p, nil); err != nil {
		return nil, err
	}
	ledger := m["mcelog.decode_ns_per_event"] + m["mcelog.validate_ns_per_event"] + m["hbm.bankkey_ns_per_event"] + m["core.session_cpu_ns_per_event"]
	if s.durable {
		if err := probeWAL(m, p, o); err != nil {
			return nil, err
		}
		if err := s.probeRecovery(m, r, o); err != nil {
			return nil, err
		}
		ledger += m["wal.append_ns_per_event"]
	}
	cpuPerEvent := betterQuartile(cpu, false)
	m["stream.cpu_ns_per_event"] = cpuPerEvent
	m["stream.residual_cpu_ns_per_event"] = cpuPerEvent - ledger
	bad, err := s.probeHTTP(m, r)
	if err != nil {
		return nil, err
	}
	if err := tr.write(o.outDir, s.name); err != nil {
		return nil, err
	}
	res := &result{attempted: r.attempted + 3, failed: r.failed + bad, metrics: m}
	res.notes = append(res.notes, fmt.Sprintf("paced open loop at %.0f events/s: %d events, %d verdict latencies (p50 %.0f p90 %.0f p99 %.0f us)",
		s.pacedRate, r.paced.sent, len(r.latencies), quantile(r.latencies, 0.5), quantile(r.latencies, 0.9), quantile(r.latencies, 0.99)))
	if late, p50 := quantile(r.paced.late, 0.5), quantile(r.latencies, 0.5); late > 0.25*p50 {
		res.notes = append(res.notes, fmt.Sprintf("load generator ran late, the paced phase is void: p50 %.0f us against verdict p50 %.0f us", late, p50))
	}
	res.notes = append(res.notes, fmt.Sprintf("cpu ledger per event: %.0f ns = decode %.0f + validate %.0f + bankkey %.0f + bare sessions %.0f + wal append %.0f + engine residual %.0f",
		cpuPerEvent, m["mcelog.decode_ns_per_event"], m["mcelog.validate_ns_per_event"], m["hbm.bankkey_ns_per_event"],
		m["core.session_cpu_ns_per_event"], m["wal.append_ns_per_event"], m["stream.residual_cpu_ns_per_event"]))
	return res, nil
}

// probeWAL appends the workload's events to a journal of its own in
// 1024-record batches: without fsync for the append cost proper, then with
// SyncAlways and group commit for what a durable ack waits for.
func probeWAL(m map[string]float64, p probeInput, o options) error {
	events := p.events[:min(len(p.events), 200*passFrameEvents)]
	var batches [][]byte
	for i := 0; i < len(events); i += passFrameEvents {
		var b []byte
		for _, e := range events[i:min(i+passFrameEvents, len(events))] {
			b = mcelog.AppendWireRecord(b, e)
		}
		batches = append(batches, b)
	}
	appendAll := func(dir string, opts wal.Options) (time.Duration, *wal.WAL, error) {
		w, err := wal.Open(dir, opts)
		if err != nil {
			return 0, nil, err
		}
		t0 := time.Now()
		for _, b := range batches {
			if _, err := w.AppendBatch(b, mcelog.WireRecordSize); err != nil {
				w.Close()
				return 0, nil, err
			}
		}
		return time.Since(t0), w, nil
	}
	dir := o.walDir(-2)
	defer os.RemoveAll(dir)
	d, w, err := appendAll(filepath.Join(dir, "never"), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		return err
	}
	m["wal.append_ns_per_event"] = float64(d) / float64(len(events))
	if err := w.Close(); err != nil {
		return err
	}
	reg := obs.NewRegistry()
	d, w, err = appendAll(filepath.Join(dir, "always"), wal.Options{Sync: wal.SyncAlways, GroupCommit: true, Metrics: reg})
	if err != nil {
		return err
	}
	m["wal.fsync_ms_per_batch"] = d.Seconds() * 1e3 / float64(len(batches))
	m["wal.segments"] = float64(w.Segments())
	// Registering a name again returns the instrument the journal counts in.
	fsyncs := float64(reg.Counter("cordial_wal_fsyncs_total", "").Value())
	m["wal.fsyncs_per_kevent"] = 1000 * fsyncs / float64(len(events))
	if err := w.Close(); err != nil {
		return err
	}
	size, err := dirSize(filepath.Join(dir, "always"))
	if err != nil {
		return err
	}
	m["wal.bytes_per_event"] = float64(size) / float64(len(events))
	return nil
}

func dirSize(dir string) (int64, error) {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// probeRecovery measures the operator's restart cost: a snapshot of every
// session after the workload's events, then a boot over the same directory.
func (s servingSpec) probeRecovery(m map[string]float64, r *servingRun, o options) error {
	dir := o.walDir(-3)
	defer os.RemoveAll(dir)
	engine, err := stream.New(s.engineConfig(r.in, dir))
	if err != nil {
		return err
	}
	go func() {
		for range engine.Actions() {
		}
	}()
	for i := 0; i < len(r.events); i += passFrameEvents {
		if _, _, err := engine.IngestBatch(r.events[i:min(i+passFrameEvents, len(r.events))]); err != nil {
			engine.Close()
			return err
		}
	}
	if err := engine.Drain(time.Minute); err != nil {
		engine.Close()
		return err
	}
	t0 := time.Now()
	if _, err := engine.Snapshot(); err != nil {
		engine.Close()
		return err
	}
	m["stream.snapshot_s"] = time.Since(t0).Seconds()
	if err := engine.Close(); err != nil {
		return err
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil {
		return err
	}
	for _, path := range snaps {
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		m["stream.snapshot_bytes"] += float64(info.Size())
	}
	t0 = time.Now()
	engine, err = stream.New(s.engineConfig(r.in, dir))
	if err != nil {
		return err
	}
	m["stream.recover_s"] = time.Since(t0).Seconds()
	go func() {
		for range engine.Actions() {
		}
	}()
	return engine.Close()
}

// inProcess is an http.RoundTripper that serves requests from handlers in
// this process, keyed by host, so the router's hop is timed without a
// socket.
type inProcess map[string]http.Handler

func (t inProcess) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no in-process host %q", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// probeHTTP posts the workload's events to an in-memory engine through the
// cordial-serve handler (binary and JSONL) and through the cluster router in
// front of it. Each figure is wall time per event including the drain, like
// a closed-loop pass. It returns how many of the three posts lost events.
func (s servingSpec) probeHTTP(m map[string]float64, r *servingRun) (bad int, err error) {
	jsonEvents := r.events[:min(len(r.events), 100_000)]
	var jsonl bytes.Buffer
	for _, e := range jsonEvents {
		line, err := mcelog.MarshalJSONEvent(e)
		if err != nil {
			return 0, err
		}
		jsonl.Write(line)
		jsonl.WriteByte('\n')
	}
	mem := servingSpec{name: s.name}
	post := func(path string, body []byte, events int, front func(*stream.Server) http.Handler) (nsPerEvent, allocsPerEvent float64, err error) {
		engine, err := stream.New(mem.engineConfig(r.in, ""))
		if err != nil {
			return 0, 0, err
		}
		srv := stream.NewServer(engine, stream.ServerConfig{})
		h := front(srv)
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		cerr := engine.Close()
		srv.AwaitDrained()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if cerr != nil {
			return 0, 0, cerr
		}
		var res stream.IngestResult
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || rec.Code != http.StatusOK || res.Accepted != events {
			bad++
		}
		return float64(d) / float64(events), float64(m1.Mallocs-m0.Mallocs) / float64(events), nil
	}
	direct := func(srv *stream.Server) http.Handler { return srv }
	bin, binAllocs, err := post("/v1/events.bin", r.in.wire, r.in.events, direct)
	if err != nil {
		return 0, err
	}
	m["stream.http_bin_ns_per_event"] = bin
	if m["stream.http_jsonl_ns_per_event"], _, err = post("/v1/events", jsonl.Bytes(), len(jsonEvents), direct); err != nil {
		return 0, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	var routers sync.WaitGroup
	defer func() { cancel(); routers.Wait() }()
	routed := func(srv *stream.Server) http.Handler {
		ring, err := json.Marshal(cluster.Descriptor{Epoch: 1, Members: []cluster.Member{{ID: "n1", Addr: "node"}}})
		if err != nil {
			panic(err) // a literal descriptor always marshals
		}
		control := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.Write(ring) })
		rt := cluster.NewRouter(cluster.RouterConfig{
			ControlPlane: "http://control",
			Client:       &http.Client{Transport: inProcess{"control": control, "node": srv}},
			Logger:       discardLogger,
		})
		// Run fetches the ring once, then refreshes it until ctx ends.
		routers.Add(1)
		go func() { defer routers.Done(); _ = rt.Run(ctx) }()
		for ready := false; !ready; time.Sleep(time.Millisecond) {
			rec := httptest.NewRecorder()
			rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
			ready = rec.Code == http.StatusOK
		}
		return rt
	}
	hop, hopAllocs, err := post("/v1/events.bin", r.in.wire, r.in.events, routed)
	if err != nil {
		return 0, err
	}
	m["cluster.hop_ns_per_event"] = hop - bin
	m["cluster.router_allocs_per_event"] = hopAllocs - binAllocs
	return bad, nil
}
