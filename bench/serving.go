package main

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/faultsim"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/sparing"
	"cordial/internal/stream"
	"cordial/internal/wal"
	"cordial/internal/xrand"
)

// servingSpec is one serving workload: where its events come from, whether
// the engine journals them, and the open-loop rate of the paced phase
// (fixed far below what the closed loop sustains on the reference box).
type servingSpec struct {
	name      string
	gen       func(*xrand.RNG, float64) ([]mcelog.Event, error)
	durable   bool
	pacedRate float64 // events per second
}

// verdictKey identifies one action in the multiset comparison.
type verdictKey struct {
	kind  sparing.ActionKind
	bank  uint64
	class faultsim.Class
	t     int64
	rows  string
}

func keyOf(kind sparing.ActionKind, bank uint64, class faultsim.Class, t time.Time, rows []int) verdictKey {
	var sb strings.Builder
	for _, r := range rows {
		sb.WriteString(strconv.Itoa(r))
		sb.WriteByte(',')
	}
	return verdictKey{kind, bank, class, t.UnixNano(), sb.String()}
}

// refVerdict is one expected action: how often it must appear and the
// stream index of the event that triggers it.
type refVerdict struct {
	count int
	event int
}

// reference is the single-threaded offline replay of a workload's events:
// the verdicts every pass must reproduce, and the cost of the bare
// sessions without an engine around them.
type reference struct {
	verdicts     map[verdictKey]refVerdict
	sessions     int
	newTime      time.Duration // all Strategy.NewSession calls
	sessionTime  time.Duration // all Session.OnEvent calls, wall
	cpu          time.Duration // process CPU over the whole replay
	predictCalls int
}

// buildReference replays events bank by bank through fresh strategy
// sessions and derives actions the way the engine promises to: one
// bank-spare per bank, each isolated row reported once per bank.
func buildReference(strategy core.Strategy, events []mcelog.Event) *reference {
	ref := &reference{verdicts: make(map[verdictKey]refVerdict)}
	order, perBank := groupByBank(events)
	type step struct {
		event int
		d     core.Decision
		class faultsim.Class
	}
	var steps []step
	cpu0 := cpuTime()
	defer func() { ref.cpu = cpuTime() - cpu0 }()
	for _, k := range order {
		idx := perBank[k]
		first := events[idx[0]]
		t0 := time.Now()
		sess := strategy.NewSession(hbm.BankOf(first.Addr))
		t1 := time.Now()
		steps = steps[:0]
		for _, i := range idx {
			d := sess.OnEvent(events[i])
			if d.Blocks != nil {
				ref.predictCalls++
			}
			if d.SpareBank || len(d.IsolateRows) > 0 {
				var class faultsim.Class
				if cs, ok := sess.(core.ClassifiedSession); ok {
					class, _ = cs.Class()
				}
				steps = append(steps, step{int(i), d, class})
			}
		}
		ref.newTime += t1.Sub(t0)
		ref.sessionTime += time.Since(t1)
		ref.sessions++

		bankSpared := false
		spared := make(map[int]struct{})
		for _, s := range steps {
			ev := events[s.event]
			if s.d.SpareBank && !bankSpared {
				bankSpared = true
				ref.expect(keyOf(sparing.ActionBankSpare, k, s.class, ev.Time, nil), s.event)
			}
			var fresh []int
			for _, r := range s.d.IsolateRows {
				if _, done := spared[r]; !done {
					spared[r] = struct{}{}
					fresh = append(fresh, r)
				}
			}
			if len(fresh) > 0 {
				ref.expect(keyOf(sparing.ActionRowSpare, k, s.class, ev.Time, fresh), s.event)
			}
		}
	}
	return ref
}

// groupByBank indexes events by bank, banks in order of first appearance.
func groupByBank(events []mcelog.Event) (order []uint64, perBank map[uint64][]int32) {
	perBank = make(map[uint64][]int32)
	for i, e := range events {
		k := e.Addr.BankKey()
		if _, ok := perBank[k]; !ok {
			order = append(order, k)
		}
		perBank[k] = append(perBank[k], int32(i))
	}
	return order, perBank
}

func (r *reference) expect(k verdictKey, event int) {
	v, ok := r.verdicts[k]
	if !ok {
		v.event = event
	}
	v.count++
	r.verdicts[k] = v
}

// expected counts the verdicts triggered by the first sent events.
func (r *reference) expected(sent int) int {
	n := 0
	for _, v := range r.verdicts {
		if v.event < sent {
			n += v.count
		}
	}
	return n
}

// check compares the actions received after ingesting the first sent events
// with the reference, in both directions, and returns how many are missing
// or extra.
func (r *reference) check(recv []recvAction, sent int) int {
	got := make(map[verdictKey]int, len(recv))
	for _, ra := range recv {
		a := ra.a
		got[keyOf(a.Kind, a.Bank.BankKey(), a.Class, a.Time, a.Rows)]++
	}
	errs := 0
	for k, v := range r.verdicts {
		if v.event >= sent {
			continue
		}
		if d := got[k] - v.count; d < 0 {
			errs -= d
		} else {
			errs += d
		}
		delete(got, k)
	}
	for _, n := range got {
		errs += n
	}
	return errs
}

// isolationCoverage is the paper's headline number taken on what the engine
// emitted: the share of failing rows (first UER of a row in its bank) that
// an earlier action had already isolated, by sparing the row or its bank,
// under the default spare budget. It is the predicate core.EvaluatePrediction
// scores offline, applied to the online path's output.
func isolationCoverage(events []mcelog.Event, recv []recvAction) float64 {
	spares, err := sparing.NewEngine(sparing.DefaultBudget())
	if err != nil {
		panic(err) // the default budget is valid
	}
	actions := make([]stream.Action, len(recv))
	for i, ra := range recv {
		actions[i] = ra.a
	}
	// The budget is shared between banks, so spares are claimed in event
	// time, not in the order two shards happened to emit.
	slices.SortStableFunc(actions, func(a, b stream.Action) int {
		if c := a.Time.Compare(b.Time); c != 0 {
			return c
		}
		return cmp.Compare(a.Bank.BankKey(), b.Bank.BankKey())
	})
	for _, a := range actions {
		if a.Kind == sparing.ActionBankSpare {
			_ = spares.SpareBank(a.Bank, a.Time) // an exhausted budget lowers coverage; that is the cost model
		} else {
			spares.SpareRows(a.Bank, a.Rows, a.Time)
		}
	}
	type bankRow struct {
		bank uint64
		row  int
	}
	seen := make(map[bankRow]struct{})
	covered := 0
	for _, e := range events {
		if e.Class != ecc.ClassUER {
			continue
		}
		k := bankRow{e.Addr.BankKey(), e.Addr.Row}
		if _, again := seen[k]; again {
			continue
		}
		seen[k] = struct{}{}
		if spares.IsRowIsolatedBefore(hbm.BankOf(e.Addr), e.Addr.Row, e.Time) {
			covered++
		}
	}
	return float64(covered) / float64(len(seen))
}

// recvAction is one action with the instant the consumer received it.
type recvAction struct {
	a  stream.Action
	at time.Time
}

// passStats is what one pass of a workload's events through a fresh engine
// cost and produced.
type passStats struct {
	wall     time.Duration
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  time.Duration
	refused  int // events not accepted, plus actions the engine evicted
	sent     int
	recv     []recvAction
	engine   *stream.Engine // closed; kept so its sessions stay reachable
	late     []float64      // paced phase: generator lateness per frame, us
	due      []time.Time    // paced phase: due time per frame
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var discardLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// engineConfig is the process shape every serving pass runs in: shards left
// at the default (GOMAXPROCS), 4096-deep rings, blocking ingest. The action
// buffer is large so that a consumer goroutine descheduled on the shared
// box shows up as latency, never as the engine evicting a verdict.
func (s servingSpec) engineConfig(in *servingInput, dir string) stream.Config {
	cfg := stream.Config{
		Strategy:     in.strategy,
		Geometry:     geo,
		QueueDepth:   4096,
		ActionBuffer: 1 << 16,
		Policy:       stream.IngestBlock,
		Logger:       discardLogger,
	}
	if s.durable {
		cfg.Durability = stream.DurabilityConfig{Dir: dir, Sync: wal.SyncAlways}
	}
	return cfg
}

// runPass drives the hot loop of POST /v1/events.bin over a fresh engine:
// FrameDecoder.Next, Event.Validate, Engine.IngestBatch, then Close to
// drain, with one goroutine receiving every action. With pace > 0 the loop
// is open: frame i is sent at start + i*pace whatever the engine is doing,
// for at most budget; otherwise it is closed and sends the whole stream.
func (s servingSpec) runPass(in *servingInput, dir string, pace, budget time.Duration, tr *tracer, during func(*stream.Engine) func()) (*passStats, error) {
	if s.durable {
		defer os.RemoveAll(dir)
	}
	engine, err := stream.New(s.engineConfig(in, dir))
	if err != nil {
		return nil, err
	}
	ps := &passStats{engine: engine}
	wire := in.wire
	if pace > 0 {
		wire = in.pacedWire
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range engine.Actions() {
			ps.recv = append(ps.recv, recvAction{a, time.Now()})
		}
	}()
	var stopDuring func()
	if during != nil {
		stopDuring = during(engine)
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, start := cpuTime(), time.Now()

	dec := mcelog.NewFrameDecoder(bytes.NewReader(wire))
	batch := make([]mcelog.Event, 0, passFrameEvents)
	var ingestErr error
	for frame := 0; ; frame++ {
		if pace > 0 {
			due := start.Add(time.Duration(frame) * pace)
			if due.Sub(start) > budget {
				break
			}
			sleepUntil(due)
			ps.late = append(ps.late, float64(time.Since(due))/1e3)
			ps.due = append(ps.due, due)
		}
		root := tr.begin("frame", frame, -1)
		sp := tr.begin("mcelog.decode", frame, root)
		fr, err := dec.Next()
		if err == io.EOF {
			if tr != nil {
				tr.spans = tr.spans[:root] // no frame left: drop the two empty spans
			}
			break
		}
		if err != nil {
			ingestErr = err
			break
		}
		batch = batch[:0]
		for i, n := 0, fr.Len(); i < n; i++ {
			batch = append(batch, fr.Event(i))
		}
		tr.end(sp)
		ps.sent += len(batch)
		sp = tr.begin("mcelog.validate", frame, root)
		valid := batch[:0]
		for _, ev := range batch {
			if ev.Validate(geo) == nil {
				valid = append(valid, ev)
			}
		}
		tr.end(sp)
		sp = tr.begin("stream.ingest", frame, root)
		accepted, _, err := engine.IngestBatch(valid)
		tr.end(sp)
		tr.end(root)
		ps.refused += len(batch) - accepted
		if err != nil {
			ingestErr = err
			break
		}
	}
	sp := tr.begin("stream.drain", -1, -1)
	closeErr := engine.Close()
	<-done
	tr.end(sp)

	ps.wall, ps.cpu = time.Since(start), cpuTime()-cpu0
	runtime.ReadMemStats(&m1)
	ps.mallocs, ps.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	ps.gcCycles = m1.NumGC - m0.NumGC
	ps.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	if stopDuring != nil {
		stopDuring()
	}
	if ingestErr != nil {
		return nil, fmt.Errorf("%s: ingest: %w", s.name, ingestErr)
	}
	if closeErr != nil {
		return nil, fmt.Errorf("%s: close: %w", s.name, closeErr)
	}
	// Invalid and shed events are in the accepted counts above; an evicted
	// action or a quarantined event is a lost verdict whatever check says.
	st := engine.Stats()
	ps.refused += int(st.ActionsDropped + st.Quarantined)
	return ps, nil
}

// sleepUntil waits for a due time: a timer sleep for the bulk, then a
// yielding spin for the last stretch, because a bare Sleep overshoots by
// more than the latency being measured.
func sleepUntil(due time.Time) {
	const spin = 2 * time.Millisecond
	if d := time.Until(due) - spin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// verdictLatencies returns, for every received action the reference knows,
// the time from the instant its frame was due to its receipt, in us.
func (r *reference) verdictLatencies(ps *passStats, tr *tracer) []float64 {
	lat := make([]float64, 0, len(ps.recv))
	for _, ra := range ps.recv {
		a := ra.a
		v, ok := r.verdicts[keyOf(a.Kind, a.Bank.BankKey(), a.Class, a.Time, a.Rows)]
		if !ok {
			continue
		}
		frame := v.event / pacedFrameEvents
		lat = append(lat, float64(ra.at.Sub(ps.due[frame]))/1e3)
		tr.add("verdict", frame, ps.due[frame], ra.at)
	}
	return lat
}

// servingRun is a workload set up and measured.
type servingRun struct {
	in        *servingInput
	events    []mcelog.Event // the wire stream decoded, exactly as the engine sees it
	ref       *reference
	setup     []float64 // seconds per set-up repetition
	baseHeap  uint64    // live heap before any engine exists
	passes    []*passStats
	liveHeap  uint64  // live heap with the last pass's engine still reachable
	icr       float64 // isolation coverage of the last pass's actions
	paced     *passStats
	latencies []float64
	attempted int
	failed    int
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// prepare sets the workload up (timed, setups times over) and builds the
// single-threaded reference.
func (s servingSpec) prepare(o options, setups int) (*servingRun, error) {
	r := &servingRun{}
	for i := 0; i < setups; i++ {
		runtime.GC() // every repetition starts from the same heap
		t0 := time.Now()
		in, err := buildServing(s.gen, o.seed, o.scale)
		if err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		r.in = in
	}
	var err error
	if r.events, err = decodeWire(r.in.wire, r.in.events); err != nil {
		return nil, err
	}
	r.ref = buildReference(r.in.strategy, r.events)
	r.baseHeap = liveHeap()
	return r, nil
}

// account adds a pass to the run's attempted and failed operations: every
// event submitted and every verdict the reference expects of them.
func (r *servingRun) account(ps *passStats) {
	r.attempted += ps.sent + r.ref.expected(ps.sent)
	r.failed += ps.refused + r.ref.check(ps.recv, ps.sent)
}

func (o options) walDir(i int) string {
	return filepath.Join(o.outDir, fmt.Sprintf("wal-%d-%d", os.Getpid(), i))
}

// minPasses is the fewest measured passes a run reports on, however short
// its window.
const minPasses = 3

// measure runs closed-loop passes for o.seconds, the first a discarded
// warm-up. Every pass is checked against the reference.
func (s servingSpec) measure(r *servingRun, o options) error {
	window := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var prev *passStats
	for i := 0; ; i++ {
		if prev != nil {
			prev.engine, prev.recv = nil, nil // one engine's sessions live at a time
		}
		ps, err := s.runPass(r.in, o.walDir(i), 0, 0, nil, nil)
		if err != nil {
			return err
		}
		r.account(ps)
		prev = ps
		if i == 0 {
			continue // warms the heap, the page cache and the journal directory up
		}
		r.passes = append(r.passes, ps)
		if len(r.passes) >= minPasses && time.Since(start)+ps.wall > window {
			break
		}
	}
	r.liveHeap = liveHeap()
	r.icr = isolationCoverage(r.events, prev.recv)
	prev.engine, prev.recv = nil, nil
	return nil
}

// pacedPhase sends frames on a fixed schedule for budget and records the
// latency of every verdict from the instant its frame was due.
func (s servingSpec) pacedPhase(r *servingRun, o options, budget time.Duration, tr *tracer) error {
	pace := time.Duration(float64(pacedFrameEvents) / s.pacedRate * 1e9)
	ps, err := s.runPass(r.in, o.walDir(-1), pace, budget, tr, nil)
	if err != nil {
		return err
	}
	r.account(ps)
	r.latencies = r.ref.verdictLatencies(ps, tr)
	ps.engine = nil
	r.paced = ps
	return nil
}

// endToEndMetrics reduces the passes to the workload's end-to-end metrics.
func (r *servingRun) endToEndMetrics() (map[string]float64, []string) {
	var c passCosts
	for _, p := range r.passes {
		c.add(r.in.events, p.wall, p.cpu, p.mallocs, p.bytes)
	}
	notes := []string{fmt.Sprintf("%d events, %d sessions, %d verdicts per pass; closed loop: %s",
		r.in.events, r.ref.sessions, r.ref.expected(r.in.events), c.speedNote())}
	if lo, hi := quantile(c.allocs, 0), quantile(c.allocs, 1); hi-lo > 0.001*lo {
		notes = append(notes, fmt.Sprintf("allocs_per_event differs between passes by more than 0.1%%: %.4f..%.4f", lo, hi))
	}
	return endToEndMetrics(r.setup, c, r.liveHeap-r.baseHeap, r.icr), notes
}

// setupRepeats is how often a serving workload is set up per untraced run;
// setup_s is the median.
const setupRepeats = 5

// run is the untraced run: the end-to-end metrics.
func (s servingSpec) run(o options) (*result, error) {
	r, err := s.prepare(o, setupRepeats)
	if err != nil {
		return nil, err
	}
	if err := s.measure(r, o); err != nil {
		return nil, err
	}
	res := &result{attempted: r.attempted, failed: r.failed}
	res.metrics, res.notes = r.endToEndMetrics()
	return res, nil
}
