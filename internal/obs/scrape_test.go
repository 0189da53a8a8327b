package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// value returns the sample of name with exactly the given labels.
func value(snap *Snapshot, name string, labels ...Label) (float64, bool) {
	for _, s := range snap.Samples {
		if s.Name == name && len(s.Labels) == len(labels) && hasLabels(s.Labels, labels) {
			return s.Value, true
		}
	}
	return 0, false
}

// TestParseTextRoundTrip renders a registry and reads it back: every
// instrument's value must be recoverable from the parsed snapshot.
func TestParseTextRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("events_total", "events", L("class", "CE")).Add(41)
	r.Counter("events_total", "events", L("class", "UER")).Add(2)
	r.Gauge("queue_depth", "depth").Set(17.5)
	h := r.Histogram("latency_seconds", "latency", []float64{0.01, 0.1, 1})
	for i := 0; i < 90; i++ {
		h.Observe(0.005)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	snap, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}

	if v, ok := value(snap, "events_total", L("class", "CE")); !ok || v != 41 {
		t.Errorf("events_total{class=CE} = %v, %v; want 41, true", v, ok)
	}
	if v, ok := value(snap, "events_total", L("class", "UER")); !ok || v != 2 {
		t.Errorf("events_total{class=UER} = %v, %v; want 2, true", v, ok)
	}
	if v, ok := value(snap, "queue_depth"); !ok || v != 17.5 {
		t.Errorf("queue_depth = %v, %v; want 17.5, true", v, ok)
	}
	if v, ok := value(snap, "latency_seconds_count"); !ok || v != 100 {
		t.Errorf("latency_seconds_count = %v, %v; want 100, true", v, ok)
	}
	// 90% of samples sit in the first bucket, so P50 interpolates inside
	// (0, 0.01] and P99 inside (0.1, 1].
	p50, ok := snap.Quantile("latency_seconds", 0.5)
	if !ok || p50 <= 0 || p50 > 0.01 {
		t.Errorf("P50 = %v, %v; want in (0, 0.01]", p50, ok)
	}
	p99, ok := snap.Quantile("latency_seconds", 0.99)
	if !ok || p99 <= 0.1 || p99 > 1 {
		t.Errorf("P99 = %v, %v; want in (0.1, 1]", p99, ok)
	}
}

// TestParseTextSpecials covers special values, timestamps and escapes.
func TestParseTextSpecials(t *testing.T) {
	const payload = `# HELP x help
# TYPE x gauge
x{path="a\"b\\c",note="line\nbreak"} +Inf
y -Inf 1700000000
z NaN
`
	snap, err := ParseText(strings.NewReader(payload))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	if v, ok := value(snap, "x", L("note", "line\nbreak"), L("path", `a"b\c`)); !ok || !math.IsInf(v, 1) {
		t.Errorf("x = %v, %v; want +Inf, true", v, ok)
	}
	if v, ok := value(snap, "y"); !ok || !math.IsInf(v, -1) {
		t.Errorf("y = %v, %v; want -Inf, true", v, ok)
	}
	if v, ok := value(snap, "z"); !ok || !math.IsNaN(v) {
		t.Errorf("z = %v, %v; want NaN, true", v, ok)
	}
}

// TestParseTextRejectsMalformed: a malformed line fails the whole parse.
func TestParseTextRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"no_value",
		`unterminated{a="b 1`,
		"1leading_digit 2",
		"name not_a_number",
		`name{bad-key="v"} 1`,
		`name{a="1"b="2"} 1`,
		`name{a=1} 1`,
		"name 1 soon",
		"name 1 1700000000 2",
	} {
		if _, err := ParseText(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("ParseText(%q): want error, got nil", bad)
		}
		if err := ValidateLine(bad); err == nil {
			t.Errorf("ValidateLine(%q): want error, got nil", bad)
		}
	}
}

// renderSample writes a parsed sample back as an exposition line.
func renderSample(s Sample) string {
	var b strings.Builder
	b.WriteString(s.Name)
	if len(s.Labels) > 0 {
		b.WriteByte('{')
		for i, l := range s.Labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Key + `="` + escapeLabelValue(l.Value) + `"`)
		}
		b.WriteByte('}')
	}
	return b.String() + " " + string(appendFloat(nil, s.Value))
}

// FuzzParseText feeds the scraper arbitrary peer bytes: it never panics,
// ValidateLine and the parser agree line by line, and the samples of an
// accepted payload survive being rendered and parsed again.
func FuzzParseText(f *testing.F) {
	r := NewRegistry()
	r.Counter("events_total", "events", L("class", "CE")).Add(41)
	r.Gauge("b_bytes", "b", L("x", `quo"te`), L("y", "line\nbreak\\")).Set(-1.5)
	r.Histogram("c_seconds", "c", []float64{0.1, 1}).Observe(0.2)
	var seed strings.Builder
	if err := r.WriteText(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("x{a=\"1\",} +Inf 1700000000000\ny NaN\n\n# c\n")
	f.Add(`x{a="b"c="d"} 1`)
	f.Add("x{a=\"\\")
	f.Fuzz(func(t *testing.T, payload string) {
		snap, err := ParseText(strings.NewReader(payload))
		if len(payload) < 64<<10 { // under the scanner's line cap the verdict is per line
			refused := ""
			for _, line := range strings.Split(payload, "\n") {
				line = strings.TrimSpace(line)
				if line != "" && !strings.HasPrefix(line, "#") && ValidateLine(line) != nil {
					refused = line
				}
			}
			if (refused != "") != (err != nil) {
				t.Fatalf("ParseText says %v, ValidateLine refuses %q", err, refused)
			}
		}
		if err != nil {
			return
		}
		var again strings.Builder
		for _, s := range snap.Samples {
			if verr := ValidateLine(renderSample(s)); verr != nil {
				t.Fatalf("re-rendered sample %q refused: %v", renderSample(s), verr)
			}
			again.WriteString(renderSample(s) + "\n")
		}
		snap2, err := ParseText(strings.NewReader(again.String()))
		if err != nil {
			t.Fatalf("re-rendered payload refused: %v\n%s", err, again.String())
		}
		if len(snap2.Samples) != len(snap.Samples) {
			t.Fatalf("%d samples re-parsed from %d", len(snap2.Samples), len(snap.Samples))
		}
		for i, a := range snap.Samples {
			b := snap2.Samples[i]
			same := a.Name == b.Name && len(a.Labels) == len(b.Labels) &&
				(a.Value == b.Value || math.IsNaN(a.Value) && math.IsNaN(b.Value))
			for j := 0; same && j < len(a.Labels); j++ {
				same = a.Labels[j] == b.Labels[j]
			}
			if !same {
				t.Fatalf("sample %d: %+v re-parsed as %+v", i, a, b)
			}
		}
	})
}

// Scrape fetches url and parses the body as a text exposition payload:
// how a test reads a live /metrics.
// Non-200 statuses are errors; a nil client uses http.DefaultClient.
func Scrape(client *http.Client, url string) (*Snapshot, error) {
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("obs: scraping %s: status %d", url, resp.StatusCode)
	}
	snap, err := ParseText(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, fmt.Errorf("obs: scraping %s: %w", url, err)
	}
	return snap, nil
}

// TestScrape exercises the HTTP path end to end against a live registry.
func TestScrape(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "hits").Add(7)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		r.WriteText(w)
	}))
	defer srv.Close()

	snap, err := Scrape(srv.Client(), srv.URL)
	if err != nil {
		t.Fatalf("Scrape: %v", err)
	}
	if v, ok := value(snap, "hits_total"); !ok || v != 7 {
		t.Errorf("hits_total = %v, %v; want 7, true", v, ok)
	}

	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer bad.Close()
	if _, err := Scrape(bad.Client(), bad.URL); err == nil {
		t.Error("Scrape of 503 endpoint: want error, got nil")
	}
}
