// Package obs is the serving stack's observability substrate: a small,
// dependency-free metrics registry — monotonic counters, gauges (stored or
// computed at scrape time) and fixed-bucket histograms — that renders the
// Prometheus text exposition format. The stream engine, the WAL and the
// HTTP front-end all register their instruments here, and both /metrics
// and /statsz read from the same instruments, so the two endpoints can
// never drift apart.
//
// Design constraints, in order:
//
//   - Hot-path updates are lock-free (atomics only). A counter increment
//     on the ingest path must cost no more than the atomic it replaces.
//   - Instruments are nil-safe: methods on a nil *Counter, *Gauge or
//     *Histogram are no-ops, so instrumented packages (e.g. internal/wal)
//     need no "is metrics enabled" branches at call sites.
//   - Rendering is deterministic: families appear in registration order,
//     series within a family in label order, so exposition output is
//     directly comparable in golden tests.
//
// Metric and label names are validated on registration (programmer errors
// panic, like a malformed struct tag would). Registering the same name
// with the same type returns the existing family, and the same label set
// returns the existing instrument, so independent components may share a
// series without coordination.
//
// The package also holds the serving path's one time source, Clock (clock.go).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one constant name="value" pair attached to an instrument.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// DefLatencyBuckets spans 100ns to 10s on a 1-2.5-5 ladder — wide enough
// for both in-process event handling (the binary ingest path decodes and
// enqueues in well under a microsecond, so the ladder starts below it) and
// fsync-bound WAL appends (milliseconds to seconds). Values are in seconds,
// the Prometheus base unit for durations.
var DefLatencyBuckets = []float64{
	1e-7, 2.5e-7, 5e-7,
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// metricKind is the exposition TYPE of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("metricKind(%d)", int(k))
	}
}

// series is one rendered time series: an instrument plus its labels.
type series struct {
	labels []Label
	key    string // canonical label signature, for dedupe and sort
	// render appends the series' exposition lines.
	render func(b []byte, name, labelStr string) []byte
}

// family groups all series sharing one metric name.
type family struct {
	name string
	help string
	kind metricKind
	// series sorted by label signature; insertion keeps order.
	series []*series
	byKey  map[string]any // label signature -> instrument
}

// Registry holds metric families and renders them. The zero value is not
// usable; construct with NewRegistry. All methods are safe for concurrent
// use, but registration is expected at component start-up, not on hot
// paths.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	buf      []byte // WriteText's rendering, reused from scrape to scrape
	clock    Clock  // what the stages registered here read
}

// NewRegistry returns an empty registry whose stages read the wall clock.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family), clock: SystemClock{}}
}

// SetClock makes c the time source of every stage registered from now on, so
// that a component handed the registry (the WAL) times its stages on the
// clock of the registry's owner (the engine).
func (r *Registry) SetClock(c Clock) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clock = c
}

// validName is the Prometheus metric-name grammar ([a-zA-Z_:][a-zA-Z0-9_:]*);
// labels use the same minus the colon.
func validName(s string, label bool) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r == ':' && !label:
		case r >= '0' && r <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// labelKey canonicalises a label set: sorted, escaped, joined. It doubles
// as the rendered label string (minus braces) for plain instruments.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue applies the exposition-format escapes for label values.
// Byte-wise, so a value round-trips through the parser whatever it holds.
func escapeLabelValue(v string) string { return labelEscaper.Replace(v) }

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// register finds or creates the family and the series slot. It returns the
// existing instrument when the same name+labels was registered before, or
// stores create()'s result otherwise.
func (r *Registry) register(name, help string, kind metricKind, labels []Label, create func() any) any {
	if !validName(name, false) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key, true) {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", l.Key, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, byKey: make(map[string]any)}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v, was %v", name, kind, f.kind))
	}
	key := labelKey(labels)
	if inst, ok := f.byKey[key]; ok {
		return inst
	}
	inst := create()
	f.byKey[key] = inst
	s := &series{labels: labels, key: key}
	switch v := inst.(type) {
	case *Counter:
		s.render = v.appendTo
	case *Gauge:
		s.render = v.appendTo
	case *gaugeFunc:
		s.render = v.appendTo
	case *Histogram:
		s.render = v.appendTo
	case *Stage:
		s.render = v.appendTo
	}
	// Keep series sorted by label signature for deterministic output.
	at := sort.Search(len(f.series), func(i int) bool { return f.series[i].key >= key })
	f.series = append(f.series, nil)
	copy(f.series[at+1:], f.series[at:])
	f.series[at] = s
	return inst
}

// Counter registers (or returns) a monotonic counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	inst := r.register(name, help, kindCounter, labels, func() any { return &Counter{} })
	c, ok := inst.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q series exists with a different instrument type", name))
	}
	return c
}

// Gauge registers (or returns) a stored gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	inst := r.register(name, help, kindGauge, labels, func() any { return &Gauge{} })
	g, ok := inst.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q series exists with a different instrument type", name))
	}
	return g
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — the natural shape for "current queue depth" or "live sessions",
// where the source of truth already lives elsewhere. fn must be safe to
// call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	inst := r.register(name, help, kindGauge, labels, func() any { return &gaugeFunc{fn: fn} })
	if _, ok := inst.(*gaugeFunc); !ok {
		panic(fmt.Sprintf("obs: metric %q series exists with a different instrument type", name))
	}
}

// Histogram registers (or returns) a fixed-bucket histogram. buckets are
// upper bounds in ascending order; +Inf is implicit. An empty slice takes
// DefLatencyBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if len(buckets) == 0 {
		buckets = DefLatencyBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending at %d", name, i))
		}
	}
	inst := r.register(name, help, kindHistogram, labels, func() any { return newHistogram(buckets) })
	h, ok := inst.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q series exists with a different instrument type", name))
	}
	return h
}

// Stage registers (or returns) the serving stage name: the series
// cordial_stage_seconds{stage=name}, the one latency instrument of the serving
// path, timed on the registry's clock.
func (r *Registry) Stage(name string) *Stage {
	return r.register("cordial_stage_seconds",
		"Sampled serving-stage latency: one occurrence of each stage in 64 is timed, so _count counts samples, not occurrences.",
		kindHistogram, []Label{L("stage", name)},
		func() any { return &Stage{Histogram: newHistogram(DefLatencyBuckets), clock: r.clock} }).(*Stage)
}

// WriteText renders every family in the Prometheus text exposition format
// (version 0.0.4): # HELP and # TYPE comments, then one line per series. The
// text is appended to one buffer the registry keeps and handed to w in a
// single Write, so a scrape of a warmed registry allocates nothing of its own.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.buf[:0]
	for _, f := range r.families {
		b = append(b, "# HELP "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = appendHelp(b, f.help)
		b = append(b, "\n# TYPE "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.kind.String()...)
		b = append(b, '\n')
		for _, s := range f.series {
			b = s.render(b, f.name, s.key)
		}
	}
	r.buf = b
	_, err := w.Write(b)
	return err
}

// appendHelp appends HELP text with the exposition-format escapes applied.
func appendHelp(b []byte, help string) []byte {
	for i := 0; i < len(help); i++ {
		switch c := help[i]; c {
		case '\\':
			b = append(b, `\\`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, c)
		}
	}
	return b
}

// appendFloat appends a sample value the way Prometheus clients render it.
func appendFloat(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	default:
		return strconv.AppendFloat(b, v, 'g', -1, 64)
	}
}

// appendSeries appends "name{labels} " (the bare name without labels), with
// suffix ("_sum", "_count") after the name.
func appendSeries(b []byte, name, suffix, labelStr string) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	if labelStr != "" {
		b = append(b, '{')
		b = append(b, labelStr...)
		b = append(b, '}')
	}
	return append(b, ' ')
}

// appendBucket appends a histogram bucket's series up to the value of its le
// label, the last one: the caller appends the bound and closes with `"} `.
func appendBucket(b []byte, name, labelStr string) []byte {
	b = append(b, name...)
	b = append(b, "_bucket{"...)
	if labelStr != "" {
		b = append(b, labelStr...)
		b = append(b, ',')
	}
	return append(b, `le="`...)
}

// appendUintLine and appendFloatLine finish a sample line with its value.
func appendUintLine(b []byte, v uint64) []byte {
	return append(strconv.AppendUint(b, v, 10), '\n')
}

func appendFloatLine(b []byte, v float64) []byte {
	return append(appendFloat(b, v), '\n')
}

// ---- counter ---------------------------------------------------------------

// Counter is a monotonically increasing uint64. The zero value is ready;
// methods on a nil receiver are no-ops (reads return 0).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) appendTo(b []byte, name, labelStr string) []byte {
	return appendUintLine(appendSeries(b, name, "", labelStr), c.Value())
}

// ---- gauge -----------------------------------------------------------------

// Gauge is a float64 that can go up and down. The zero value is ready;
// methods on a nil receiver are no-ops (reads return 0).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) appendTo(b []byte, name, labelStr string) []byte {
	return appendFloatLine(appendSeries(b, name, "", labelStr), g.Value())
}

// gaugeFunc is a gauge computed at scrape time.
type gaugeFunc struct {
	fn func() float64
}

func (g *gaugeFunc) appendTo(b []byte, name, labelStr string) []byte {
	return appendFloatLine(appendSeries(b, name, "", labelStr), g.fn())
}

// ---- histogram -------------------------------------------------------------

// Histogram counts observations into fixed cumulative buckets and tracks
// an exact count, sum and maximum. Observe is lock-free; a scrape may split an
// observation between the bucket counters and the sum (the usual
// Prometheus histogram relaxation) but every per-series value is itself
// consistent and monotone. Methods on a nil receiver are no-ops.
type Histogram struct {
	bounds []float64 // ascending upper bounds, +Inf implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomicFloat
	max    atomicFloat // -Inf until the first observation
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	h.max.bits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket ladders are ~20 wide and the branch predictor
	// does well on latency-shaped data; a binary search is not faster
	// until ~64 buckets.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
	h.max.raise(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

// Max returns the largest value observed, exactly (0 before the first).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	if m := h.max.load(); !math.IsInf(m, -1) {
		return m
	}
	return 0
}

// Quantile estimates the q-quantile (0 < q <= 1) of everything observed so
// far from the bucket counts — bucketQuantile, the estimate a scrape of the
// rendered series gives (Snapshot.Quantile). False while the histogram is
// empty.
func (h *Histogram) Quantile(q float64) (float64, bool) {
	if h == nil {
		return 0, false
	}
	var stack [32]bucket // the default ladder has 26 rungs
	buckets, cum := stack[:0], uint64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		buckets = append(buckets, bucket{le: le, cum: float64(cum)})
	}
	return bucketQuantile(buckets, q)
}

// bucket is one cumulative histogram bucket: cum observations were <= le.
type bucket struct {
	le, cum float64
}

// bucketQuantile estimates the q-quantile (0 < q <= 1) from cumulative
// buckets in ascending le order, the last one +Inf: linear interpolation
// inside the bucket the rank falls in, the same estimate histogram_quantile
// gives. A rank beyond the ladder reports the highest finite bound. False for
// an empty histogram.
func bucketQuantile(buckets []bucket, q float64) (float64, bool) {
	if !(q > 0 && q <= 1) || len(buckets) == 0 { // NaN fails both
		return 0, false
	}
	total := buckets[len(buckets)-1].cum
	if total == 0 {
		return 0, false
	}
	rank := q * total
	for i, b := range buckets {
		if b.cum < rank {
			continue
		}
		if math.IsInf(b.le, 1) {
			if i > 0 {
				return buckets[i-1].le, true
			}
			return 0, false
		}
		lower, prevCum := 0.0, 0.0
		if i > 0 {
			lower, prevCum = buckets[i-1].le, buckets[i-1].cum
		}
		if b.cum == prevCum {
			return b.le, true
		}
		return lower + (b.le-lower)*(rank-prevCum)/(b.cum-prevCum), true
	}
	return buckets[len(buckets)-1].le, true
}

func (h *Histogram) appendTo(b []byte, name, labelStr string) []byte {
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		b = append(appendFloat(appendBucket(b, name, labelStr), bound), `"} `...)
		b = appendUintLine(b, cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	b = append(appendBucket(b, name, labelStr), `+Inf"} `...)
	b = appendUintLine(b, cum)
	b = appendFloatLine(appendSeries(b, name, "_sum", labelStr), h.Sum())
	return appendUintLine(appendSeries(b, name, "_count", labelStr), h.count.Load())
}

// ---- stage -----------------------------------------------------------------

// StageEvery is a Stage's sampling period: occurrences 0, StageEvery,
// 2·StageEvery, … of a stage are timed, and no other reads the clock.
const StageEvery = 64

// Stage is one serving stage's latency, sampled: a stage entered n times holds
// exactly ⌈n/StageEvery⌉ observations, so its _count counts samples, and an
// exact count of occurrences is a counter's. Start and Stop are lock-free, and
// no-ops on a nil receiver.
type Stage struct {
	*Histogram // the samples, in seconds
	clock      Clock
	n          atomic.Uint64 // occurrences started
}

// Start begins an occurrence of the stage. A sampled one reads the clock and
// returns its time; every other returns the zero Time and reads nothing.
func (s *Stage) Start() time.Time {
	if s == nil || (s.n.Add(1)-1)%StageEvery != 0 {
		return time.Time{}
	}
	return s.clock.Now()
}

// Stop ends the occurrence whose Start returned t0, observing the time since
// t0 when the occurrence was sampled.
func (s *Stage) Stop(t0 time.Time) {
	if !t0.IsZero() {
		s.Observe(s.clock.Now().Sub(t0).Seconds())
	}
}

// ValidateLine checks one non-comment exposition line for the shape a
// Prometheus scraper requires: a valid metric name, an optional
// well-formed {label="value",...} block, a parseable float sample and at most
// an integer timestamp after it. It is the parser ParseText runs, asked only
// for its verdict. Exported for tests that assert /metrics output stays
// scrapeable.
func ValidateLine(line string) error {
	_, err := parseSampleLine(line)
	return err
}

// atomicFloat is a CAS-updated float64.
type atomicFloat struct {
	bits atomic.Uint64
}

func (a *atomicFloat) add(v float64) {
	for {
		old := a.bits.Load()
		if a.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// raise lifts the value to v if v is larger.
func (a *atomicFloat) raise(v float64) {
	for {
		old := a.bits.Load()
		if v <= math.Float64frombits(old) || a.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (a *atomicFloat) load() float64 { return math.Float64frombits(a.bits.Load()) }
