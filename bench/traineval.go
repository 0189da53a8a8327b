package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cordial/internal/core"
	"cordial/internal/faultsim"
	"cordial/internal/mcelog"
	"cordial/internal/sparing"
	"cordial/internal/xrand"
)

// trainInput is the offline workload's set-up: the catalogue's labelled
// failing banks split at bank granularity. The 30 % test side is a fixture
// like the catalogue: a few whole-column banks hold a large share of all UER
// rows, so the coverage rate of a test side drawn per seed swings by a
// quarter with which of them it caught. The seed draws the training side,
// 90 % of the rest.
type trainInput struct {
	train, test []*faultsim.BankFault
	events      int // events Fit and the evaluations consume per repetition
}

func buildTrainEval(seed uint64, scale float64) (*trainInput, error) {
	faults, _, err := faultCatalogue(scaled(trainEvalBanks, scale))
	if err != nil {
		return nil, err
	}
	pool, test, err := core.SplitBanks(faults, xrand.New(catalogueSeed), 0.7)
	if err != nil {
		return nil, err
	}
	in := &trainInput{test: test}
	total := 0
	for _, bf := range pool {
		total += len(bf.UERRows)
	}
	// Training cost follows the number of UER rows trained on (each is 16
	// block instances), so a free draw moves cost by 5 % between seeds.
	// Draws are repeated until the training side holds 90 % of the rows too.
	rng := xrand.New(seed)
	for try := 0; ; try++ {
		if in.train, _, err = core.SplitBanks(pool, rng, 0.9); err != nil {
			return nil, err
		}
		rows := 0
		for _, bf := range in.train {
			rows += len(bf.UERRows)
		}
		if share := float64(rows) / float64(total); try == 1000 || (share > 0.897 && share < 0.903) {
			break
		}
	}
	for _, side := range [][]*faultsim.BankFault{in.train, in.test} {
		for _, bf := range side {
			in.events += len(bf.Events)
		}
	}
	return in, nil
}

// trainRep is one repetition of the retrain loop: fit, then evaluate.
type trainRep struct {
	pipe     *core.Pipeline
	fit      time.Duration
	eval     time.Duration
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	f1       float64 // macro-F1 of the pattern stage on the test banks
	icr      float64
	crossICR float64
	verdicts []string // per test bank: class and every decision, in order
}

func trainConfig(seed uint64, parallelism int) core.Config {
	cfg := core.DefaultConfig(core.RandomForest)
	cfg.Params.Parallelism = parallelism
	cfg.Seed = seed
	return cfg
}

// runRep fits a default random-forest pipeline on the training banks and
// scores it on the test banks, timing Fit and the two evaluations.
func (in *trainInput) runRep(seed uint64, parallelism int, tr *tracer) (*trainRep, error) {
	cfg := trainConfig(seed, parallelism)
	pipe, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	rep := &trainRep{pipe: pipe}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, t0 := cpuTime(), time.Now()
	sp := tr.begin("core.fit", 0, -1)
	if err := pipe.Fit(in.train); err != nil {
		return nil, err
	}
	tr.end(sp)
	t1 := time.Now()
	strategy := &core.CordialStrategy{Pipeline: pipe, Geometry: geo}
	sp = tr.begin("core.evaluate_pattern", 0, -1)
	pe, err := core.EvaluatePattern(pipe, in.test)
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	sp = tr.begin("core.evaluate_prediction", 0, -1)
	ev, err := core.EvaluatePrediction(strategy, in.test, cfg.Block, sparing.DefaultBudget())
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	rep.fit, rep.eval, rep.cpu = t1.Sub(t0), time.Since(t1), cpuTime()-cpu0
	runtime.ReadMemStats(&m1)
	rep.mallocs, rep.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc

	classes := 0
	for _, c := range faultsim.AllClasses {
		if pe.Confusion.Support(int(c)) > 0 {
			rep.f1 += pe.PerClass[c].F1
			classes++
		}
	}
	rep.f1 /= float64(classes)
	rep.icr, rep.crossICR = ev.ICR.Rate(), ev.CrossRowICR.Rate()
	for _, bf := range in.test {
		rep.verdicts = append(rep.verdicts, replayVerdicts(strategy, bf))
	}
	return rep, nil
}

// replayVerdicts renders every decision a strategy takes over one bank's
// history, for exact comparison between two fitted pipelines.
func replayVerdicts(strategy core.Strategy, bf *faultsim.BankFault) string {
	var sb strings.Builder
	sess := strategy.NewSession(bf.Bank)
	for i, e := range bf.Events {
		d := sess.OnEvent(e)
		if !d.SpareBank && len(d.IsolateRows) == 0 {
			continue
		}
		sb.WriteString(strconv.Itoa(i))
		if d.SpareBank {
			sb.WriteString(":bank")
		}
		for _, r := range d.IsolateRows {
			sb.WriteByte(':')
			sb.WriteString(strconv.Itoa(r))
		}
		sb.WriteByte(' ')
	}
	if cs, ok := sess.(core.ClassifiedSession); ok {
		if class, fired := cs.Class(); fired {
			sb.WriteString(class.String())
		}
	}
	return sb.String()
}

// Quality floors of train_eval's correctness check at full scale: well
// below what any seed scores (see README), so only a model that has stopped
// predicting trips them.
const (
	floorPatternF1 = 0.5
	floorICR       = 0.1
)

// trainSetupRepeats is how often train_eval's (cheap) set-up is repeated.
const trainSetupRepeats = 25

// trainRun is the train_eval workload measured.
type trainRun struct {
	in        *trainInput
	setup     []float64
	ref       *trainRep // Parallelism 1: the single-threaded reference
	reps      []*trainRep
	baseHeap  uint64
	liveHeap  uint64
	attempted int
	failed    int
}

// measureTrainEval repeats the retrain loop for the window. Repetition 0
// runs single-threaded: it is the discarded warm-up and the reference whose
// test-bank verdicts every later (parallel) repetition must reproduce.
func measureTrainEval(o options, window time.Duration, setups int, tr *tracer) (*trainRun, error) {
	r := &trainRun{}
	for i := 0; i < setups; i++ {
		runtime.GC() // every repetition starts from the same heap
		t0 := time.Now()
		in, err := buildTrainEval(o.seed, o.scale)
		if err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		r.in = in
	}
	r.baseHeap = liveHeap()
	start := time.Now()
	var err error
	if r.ref, err = r.in.runRep(servingModelSeed, 1, nil); err != nil {
		return nil, err
	}
	for {
		tr.setBase(len(r.reps))
		rep, err := r.in.runRep(servingModelSeed, runtime.GOMAXPROCS(0), tr)
		if err != nil {
			return nil, err
		}
		for i, v := range rep.verdicts {
			r.attempted++
			if v != r.ref.verdicts[i] {
				r.failed++
			}
		}
		r.attempted++
		if (o.scale >= 1 && (rep.f1 < floorPatternF1 || rep.icr < floorICR)) || rep.f1 != r.ref.f1 || rep.icr != r.ref.icr {
			r.failed++
		}
		if len(r.reps) > 0 {
			r.reps[len(r.reps)-1].pipe = nil
		}
		r.reps = append(r.reps, rep)
		if len(r.reps) >= minPasses && time.Since(start)+rep.fit+rep.eval > window {
			break
		}
	}
	r.liveHeap = liveHeap()
	return r, nil
}

func (r *trainRun) endToEndMetrics() (map[string]float64, []string) {
	var c passCosts
	for _, p := range r.reps {
		c.add(r.in.events, p.fit+p.eval, p.cpu, p.mallocs, p.bytes)
	}
	last := r.reps[len(r.reps)-1]
	notes := []string{fmt.Sprintf("%d train + %d test banks, %d events; pattern macro-F1 %.4f, ICR %.4f, cross-row ICR %.4f; Fit + evaluations after the single-threaded reference: %s",
		len(r.in.train), len(r.in.test), r.in.events, last.f1, last.icr, last.crossICR, c.speedNote())}
	return endToEndMetrics(r.setup, c, r.liveHeap-r.baseHeap, last.icr), notes
}

func runTrainEval(o options) (*result, error) {
	r, err := measureTrainEval(o, time.Duration(o.seconds)*time.Second, trainSetupRepeats, nil)
	if err != nil {
		return nil, err
	}
	res := &result{attempted: r.attempted, failed: r.failed}
	res.metrics, res.notes = r.endToEndMetrics()
	return res, nil
}

// tracedTrainEval is the traced run of train_eval: a short measured window
// with spans around Fit and the evaluations, the stages of Fit timed one by
// one from outside, and the layer probes on the test banks' events.
func tracedTrainEval(o options) (*result, error) {
	tr := newTracer()
	r, err := measureTrainEval(o, time.Duration(o.seconds)*time.Second/4, 1, tr)
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64)
	var fit, eval []float64
	for _, p := range r.reps {
		fit = append(fit, p.fit.Seconds())
		eval = append(eval, p.eval.Seconds())
	}
	last := r.reps[len(r.reps)-1]
	m["core.train_s"] = quantile(fit, 0.5)
	m["core.eval_banks_per_s"] = float64(len(r.in.test)) / quantile(eval, 0.5)
	m["core.icr"], m["core.cross_row_icr"], m["core.pattern_f1"] = last.icr, last.crossICR, last.f1

	var events []mcelog.Event
	for _, bf := range r.in.test {
		events = append(events, bf.Events...)
	}
	sortEvents(events)
	wire, err := encodeWire(events, passFrameEvents)
	if err != nil {
		return nil, err
	}
	if events, err = decodeWire(wire, len(events)); err != nil {
		return nil, err
	}
	strategy := &core.CordialStrategy{Pipeline: last.pipe, Geometry: geo}
	p := probeInput{pipe: last.pipe, strategy: strategy, trainFaults: r.in.train, events: events, wire: wire}

	tr.setBase(len(r.reps))
	cfg := last.pipe.Config()
	sp := tr.begin("core.pattern_dataset", 0, -1)
	t0 := time.Now()
	pds, err := core.BuildPatternDataset(r.in.train, cfg.Pattern, cfg.ErrBits)
	if err != nil {
		return nil, err
	}
	patternDS := time.Since(t0)
	tr.end(sp)
	pm, err := core.NewModel(cfg.Model, cfg.Params, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("mltree.fit_pattern", 0, -1)
	t0 = time.Now()
	if err := pm.Fit(pds); err != nil {
		return nil, err
	}
	fitPattern := time.Since(t0)
	tr.end(sp)
	blockDS, fitBlock, err := probeModel(m, p, tr)
	if err != nil {
		return nil, err
	}
	m["core.dataset_s"] = (patternDS + blockDS).Seconds()
	m["mltree.fit_pattern_s"] = fitPattern.Seconds()
	m["mltree.fit_block_s"] = fitBlock.Seconds()
	// The rest of Fit: cross-fitting the block threshold on a 75/25 split
	// (a third model fit) and the model metadata.
	m["core.calibrate_s"] = m["core.train_s"] - m["core.dataset_s"] - m["mltree.fit_pattern_s"] - m["mltree.fit_block_s"]

	if err := probeCodecs(m, p); err != nil {
		return nil, err
	}
	probeSessions(m, p)
	if err := probeFeatures(m, p); err != nil {
		return nil, err
	}
	if err := tr.write(o.outDir, "train_eval"); err != nil {
		return nil, err
	}
	res := &result{attempted: r.attempted, failed: r.failed, metrics: m}
	res.notes = append(res.notes, fmt.Sprintf("train_s %.3f = datasets %.3f + fit pattern %.3f + fit block %.3f + calibrate and meta %.3f (remainder)",
		m["core.train_s"], m["core.dataset_s"], m["mltree.fit_pattern_s"], m["mltree.fit_block_s"], m["core.calibrate_s"]))
	return res, nil
}
