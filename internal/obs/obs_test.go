package obs

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestExpositionGolden pins the exact rendered output: family ordering by
// registration, series ordering by label signature, HELP/TYPE comments,
// histogram bucket cumulativity and the +Inf terminal bucket.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "Events seen.")
	c.Add(41)
	c.Inc()
	g := r.Gauge("test_depth", "Current depth.")
	g.Set(2.5)
	r.GaugeFunc("test_live", "Live things.", func() float64 { return 7 })
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(5)
	cb := r.Counter("test_shard_total", "Per-shard.", L("shard", "1"))
	ca := r.Counter("test_shard_total", "Per-shard.", L("shard", "0"))
	cb.Add(2)
	ca.Inc()

	want := `# HELP test_events_total Events seen.
# TYPE test_events_total counter
test_events_total 42
# HELP test_depth Current depth.
# TYPE test_depth gauge
test_depth 2.5
# HELP test_live Live things.
# TYPE test_live gauge
test_live 7
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.1"} 1
test_latency_seconds_bucket{le="1"} 3
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_sum 6.05
test_latency_seconds_count 4
# HELP test_shard_total Per-shard.
# TYPE test_shard_total counter
test_shard_total{shard="0"} 1
test_shard_total{shard="1"} 2
`
	if got := render(t, r); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestExpositionParses runs a minimal line-shape validator over a rendered
// registry: every non-comment line must be "name{labels} value" with a
// parseable float value — the contract a Prometheus scraper needs.
func TestExpositionParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a").Add(3)
	r.Gauge("b_bytes", "b", L("x", `quo"te`), L("y", "line\nbreak")).Set(-1.5)
	r.Histogram("c_seconds", "c", nil).Observe(0.2)
	for _, line := range strings.Split(strings.TrimSuffix(render(t, r), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if err := ValidateLine(line); err != nil {
			t.Errorf("line %q: %v", line, err)
		}
	}
}

func TestDuplicateRegistrationReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "d", L("k", "v"))
	b := r.Counter("dup_total", "d", L("k", "v"))
	if a != b {
		t.Error("same name+labels returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Error("duplicate registration did not share state")
	}
	// Different label set under the same family is a new series.
	c := r.Counter("dup_total", "d", L("k", "w"))
	if c == a {
		t.Error("different labels returned the same instrument")
	}
	// Label order must not matter.
	g1 := r.Gauge("dup_gauge", "g", L("a", "1"), L("b", "2"))
	g2 := r.Gauge("dup_gauge", "g", L("b", "2"), L("a", "1"))
	if g1 != g2 {
		t.Error("label order changed instrument identity")
	}
}

func TestRegistrationPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	expectPanic("bad metric name", func() { r.Counter("1bad", "") })
	expectPanic("bad label name", func() { r.Counter("ok_total", "", L("bad-key", "v")) })
	expectPanic("empty name", func() { r.Gauge("", "") })
	r.Counter("twice", "")
	expectPanic("type conflict", func() { r.Gauge("twice", "") })
	expectPanic("non-ascending buckets", func() { r.Histogram("h", "", []float64{1, 1}) })
	r.GaugeFunc("gf", "", func() float64 { return 0 })
	expectPanic("gaugefunc vs gauge", func() { r.Gauge("gf", "") })
}

// TestNilInstrumentsAreNoOps: instrumented packages pass nil instruments
// when metrics are disabled; every method must tolerate that.
func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(1)
	h.Observe(1)
	var st *Stage
	st.Stop(st.Start())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instrument returned non-zero")
	}
}

func TestGaugeNegatives(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "")
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Errorf("gauge = %v, want -3", got)
	}
	if !strings.Contains(render(t, r), "g -3\n") {
		t.Errorf("rendered %q", render(t, r))
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2})
	h.Observe(1) // on the boundary: le="1" is inclusive
	h.Observe(math.Nextafter(1, 2))
	h.Observe(3)
	out := render(t, r)
	for _, want := range []string{
		`h_bucket{le="1"} 1`,
		`h_bucket{le="2"} 2`,
		`h_bucket{le="+Inf"} 3`,
		`h_count 3`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestConcurrentUpdatesAndScrapes drives all instrument types from many
// goroutines while scraping; meaningful under -race, and the final counts
// must be exact.
func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", nil)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i) * 1e-6)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.WriteText(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != per-1 { // every worker's last Set is per-1
		t.Errorf("gauge = %v, want %d", g.Value(), per-1)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}

// TestHistogramQuantileMatchesScrape: the in-process estimate and the one a
// scraper computes from the rendered buckets are one function over the same
// counts, so they agree exactly — for every q, on empty, single-bucket,
// all-in-overflow and seeded random fills.
func TestHistogramQuantileMatchesScrape(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	fills := map[string]func(h *Histogram){
		"empty":         func(h *Histogram) {},
		"single bucket": func(h *Histogram) { h.Observe(3e-6); h.Observe(4e-6); h.Observe(5e-6) },
		"all overflow":  func(h *Histogram) { h.Observe(11); h.Observe(3600) },
		"one sample":    func(h *Histogram) { h.Observe(7e-3) },
	}
	for i := 0; i < 20; i++ {
		n, scale := 1+rng.Intn(5000), math.Pow(10, -7+8*rng.Float64())
		fills[fmt.Sprintf("random %d", i)] = func(h *Histogram) {
			for j := 0; j < n; j++ {
				h.Observe(rng.ExpFloat64() * scale)
			}
		}
	}
	for name, fill := range fills {
		for _, bounds := range [][]float64{nil, {0.5}, {1e-6, 1e-3, 1}} {
			r := NewRegistry()
			h := r.Histogram("lat_seconds", "", bounds, L("shard", "0"))
			fill(h)
			snap, err := ParseText(strings.NewReader(render(t, r)))
			if err != nil {
				t.Fatal(err)
			}
			for q := 0.01; q <= 1.0001; q += 0.01 {
				q = math.Min(q, 1)
				got, gotOK := h.Quantile(q)
				want, wantOK := snap.Quantile("lat_seconds", q)
				if got != want || gotOK != wantOK {
					t.Fatalf("%s, %d bounds, q=%.2f: Histogram.Quantile = %v, %v; scrape says %v, %v",
						name, len(bounds), q, got, gotOK, want, wantOK)
				}
				if gotOK != (h.Count() > 0) {
					t.Fatalf("%s: Quantile ok=%v with %d observations", name, gotOK, h.Count())
				}
			}
		}
	}
	for _, q := range []float64{0, -1, 1.01, math.NaN()} {
		h := NewRegistry().Histogram("h", "", nil)
		h.Observe(1)
		if v, ok := h.Quantile(q); ok {
			t.Errorf("Quantile(%v) = %v, true; want false", q, v)
		}
	}
}

// TestHistogramMaxCountSumConcurrent: Max, Count and Sum are exact however
// the observations interleave (run under -race in CI).
func TestHistogramMaxCountSumConcurrent(t *testing.T) {
	h := NewRegistry().Histogram("h_seconds", "", nil)
	if h.Max() != 0 {
		t.Fatalf("empty Max = %v", h.Max())
	}
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= per; i++ {
				h.Observe(float64(w*per + i)) // integers: the float sum is exact
				if m := h.Max(); m < float64(w*per+i) {
					t.Errorf("Max %v below a value already observed (%d)", m, w*per+i)
					return
				}
			}
		}()
	}
	wg.Wait()
	const n = workers * per
	if h.Count() != n || h.Max() != n || h.Sum() != n*(n+1)/2 {
		t.Errorf("count %d max %v sum %v, want %d %d %d", h.Count(), h.Max(), h.Sum(), n, n, n*(n+1)/2)
	}
	neg := NewRegistry().Histogram("neg", "", []float64{0})
	neg.Observe(-3)
	neg.Observe(-5)
	if neg.Max() != -3 {
		t.Errorf("Max over {-3,-5} = %v", neg.Max())
	}
}

// countingClock is a Clock that counts its reads.
type countingClock struct {
	Clock
	reads atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.reads.Add(1)
	return c.Clock.Now()
}

// TestStageSampling: a stage entered n times holds exactly ⌈n/64⌉ samples —
// the first occurrence and every 64th after it — each timed on the clock of
// the registry the stage was registered in, two reads a sample and none on
// any other occurrence.
func TestStageSampling(t *testing.T) {
	clock := &countingClock{Clock: NewFakeClock(time.Unix(1, 0))}
	r := NewRegistry()
	r.SetClock(clock)
	st := r.Stage("fold")
	if r.Stage("fold") != st {
		t.Fatal("registering a stage again returned a new instrument")
	}
	for n := 1; n <= 3*StageEvery+1; n++ {
		t0 := st.Start()
		clock.Clock.(*FakeClock).Advance(3 * time.Microsecond)
		st.Stop(t0)
		samples := (n + StageEvery - 1) / StageEvery
		if st.Count() != uint64(samples) || clock.reads.Load() != int64(2*samples) {
			t.Fatalf("after %d occurrences: %d samples, %d clock reads; want %d and %d",
				n, st.Count(), clock.reads.Load(), samples, 2*samples)
		}
	}
	if st.Max() != 3e-6 || math.Abs(st.Sum()-4*3e-6) > 1e-15 {
		t.Errorf("samples max %v sum %v, want 3µs each", st.Max(), st.Sum())
	}
	if out := render(t, r); !strings.Contains(out, "\ncordial_stage_seconds_count{stage=\"fold\"} 4\n") {
		t.Errorf("stage rendered as\n%s", out)
	}
}

// TestStageConcurrentSampling: occurrences started from many goroutines at
// once are numbered exactly once each, so the sample count is still ⌈n/64⌉
// (run under -race in CI).
func TestStageConcurrentSampling(t *testing.T) {
	clock := &countingClock{Clock: SystemClock{}}
	r := NewRegistry()
	r.SetClock(clock)
	st := r.Stage("decode")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				st.Stop(st.Start())
			}
		}()
	}
	wg.Wait()
	const samples = (workers*per + StageEvery - 1) / StageEvery
	if st.Count() != samples || clock.reads.Load() != 2*samples {
		t.Errorf("%d samples and %d clock reads over %d occurrences, want %d and %d",
			st.Count(), clock.reads.Load(), workers*per, samples, 2*samples)
	}
}

// fmtRender is the renderer WriteText replaced — one fmt.Fprintf per line —
// kept as the reference the append-based one must match byte for byte.
func fmtRender(r *Registry, values map[string][]string) string {
	var b strings.Builder
	for _, f := range r.families {
		help := strings.ReplaceAll(strings.ReplaceAll(f.help, `\`, `\\`), "\n", `\n`)
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, help, f.name, f.kind)
		for _, line := range values[f.name] {
			fmt.Fprintf(&b, "%s%s\n", f.name, line)
		}
	}
	return b.String()
}

// TestAppendRendererMatchesFmt renders a registry holding every instrument
// kind, labels that need escaping, a HELP text that does, and the values whose
// formatting could differ between strconv.Append* and fmt (infinities, NaN,
// exponents, the largest counter) against the fmt-based reference, twice: the
// reused buffer must not leak one scrape into the next.
func TestAppendRendererMatchesFmt(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "Back\\slash and\nnewline.").Add(math.MaxUint64)
	r.Gauge("b", "b", L("x", `quo"te`), L("y", "line\nbreak\\")).Set(-1.5e-7)
	r.Gauge("b", "b", L("x", "inf")).Set(math.Inf(1))
	r.Gauge("b", "b", L("x", "-inf")).Set(math.Inf(-1))
	r.Gauge("b", "b", L("x", "nan")).Set(math.NaN())
	r.GaugeFunc("c", "c", func() float64 { return 1e21 })
	h := r.Histogram("d_seconds", "d", []float64{1e-6, 0.25, 1e9}, L("stage", "fold"))
	for _, v := range []float64{5e-7, 0.1, 0.1, 3, 1e12} {
		h.Observe(v)
	}
	r.Histogram("d_seconds", "d", []float64{1}).Observe(0.5)
	want := fmtRender(r, map[string][]string{
		"a_total": {" 18446744073709551615"},
		"b": {
			`{x="-inf"} -Inf`, `{x="inf"} +Inf`, `{x="nan"} NaN`,
			`{x="quo\"te",y="line\nbreak\\"} ` + fmt.Sprint(-1.5e-7),
		},
		"c": {" 1e+21"},
		"d_seconds": {
			`_bucket{le="1"} 1`, `_bucket{le="+Inf"} 1`, `_sum 0.5`, `_count 1`,
			`_bucket{stage="fold",le="1e-06"} 1`, `_bucket{stage="fold",le="0.25"} 3`,
			`_bucket{stage="fold",le="1e+09"} 4`, `_bucket{stage="fold",le="+Inf"} 5`,
			`_sum{stage="fold"} ` + fmt.Sprint(5e-7+0.1+0.1+3+1e12), `_count{stage="fold"} 5`,
		},
	})
	for scrape := 0; scrape < 2; scrape++ {
		if got := render(t, r); got != want {
			t.Fatalf("scrape %d:\ngot:\n%s\nwant:\n%s", scrape, got, want)
		}
	}
}

// discard counts bytes and keeps none: io.Discard without the interface
// conversions of a test-local writer showing up as allocations.
type discard struct{ n int }

func (d *discard) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// TestWriteTextAllocatesNothing pins the scrape cost: once the registry's
// buffer has grown to the exposition's size, rendering every instrument kind
// allocates nothing (the fmt renderer made about six allocations per line).
func TestWriteTextAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	for shard := 0; shard < 8; shard++ {
		l := L("shard", fmt.Sprint(shard))
		r.Counter("events_total", "events", l).Add(uint64(shard) * 1e9)
		r.Gauge("depth", "depth", l).Set(float64(shard) + 0.5)
		r.Histogram("latency_seconds", "latency", nil, l).Observe(float64(shard) * 1e-4)
	}
	depth := 3.0
	r.GaugeFunc("live", "live", func() float64 { return depth })
	var w discard
	if err := r.WriteText(&w); err != nil || w.n == 0 {
		t.Fatalf("WriteText wrote %d bytes, err %v", w.n, err)
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = r.WriteText(&w) }); allocs != 0 {
		t.Errorf("a warmed WriteText allocates %v times, want 0", allocs)
	}
}
