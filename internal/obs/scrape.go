package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Scrape-side companion to the registry: a parser for the Prometheus text
// exposition format that turns a /metrics payload back into queryable
// samples. Tests use it to read a registry's own WriteText output, or a
// live /metrics, back without string matching.

// Sample is one parsed exposition line: a metric name, its label set and
// the sample value.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Snapshot is one parsed scrape. Samples keep payload order; Quantile finds
// a family's series through an index by name.
type Snapshot struct {
	Samples []Sample
	byName  map[string][]int // name -> indices into Samples
}

// ParseText parses a text exposition payload (the format WriteText
// renders). Comment and blank lines are skipped; any malformed sample
// line fails the whole parse — a scrape that is only partly readable is
// not a scrape the harness should assert against.
func ParseText(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{
		byName: make(map[string][]int),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		idx := len(snap.Samples)
		snap.Samples = append(snap.Samples, s)
		snap.byName[s.Name] = append(snap.byName[s.Name], idx)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading exposition: %w", err)
	}
	return snap, nil
}

// Quantile estimates the q-quantile (0 < q <= 1) of the histogram family
// name from its cumulative <name>_bucket series, restricted to series
// whose labels include every given label — bucketQuantile, the estimate
// Histogram.Quantile gives in-process. The second return is false when the
// histogram is absent or empty.
func (s *Snapshot) Quantile(name string, q float64, labels ...Label) (float64, bool) {
	if s == nil {
		return 0, false
	}
	var buckets []bucket
	for _, i := range s.byName[name+"_bucket"] {
		smp := s.Samples[i]
		if !hasLabels(smp.Labels, labels) {
			continue
		}
		le, ok := labelValue(smp.Labels, "le")
		if !ok {
			continue
		}
		bound, err := parseSampleValue(le)
		if err != nil {
			continue
		}
		buckets = append(buckets, bucket{le: bound, cum: smp.Value})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	return bucketQuantile(buckets, q)
}

// parseSampleLine splits one exposition line into name, labels and value.
func parseSampleLine(line string) (Sample, error) {
	var s Sample
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		close := strings.LastIndexByte(rest, '}')
		if close < i {
			return Sample{}, fmt.Errorf("obs: unterminated label block")
		}
		labels, err := parseLabelBlock(rest[i+1 : close])
		if err != nil {
			return Sample{}, err
		}
		s.Labels = labels
		rest = strings.TrimSpace(rest[close+1:])
	} else {
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return Sample{}, fmt.Errorf("obs: no sample value")
		}
		s.Name, rest = rest[:sp], strings.TrimSpace(rest[sp+1:])
	}
	if !validName(s.Name, false) {
		return Sample{}, fmt.Errorf("obs: invalid metric name %q", s.Name)
	}
	// Exposition lines may carry a trailing timestamp: integer milliseconds,
	// and nothing after it.
	if value, stamp, ok := strings.Cut(rest, " "); ok {
		if _, err := strconv.ParseInt(strings.TrimSpace(stamp), 10, 64); err != nil {
			return Sample{}, fmt.Errorf("obs: invalid timestamp %q", stamp)
		}
		rest = value
	}
	v, err := parseSampleValue(rest)
	if err != nil {
		return Sample{}, fmt.Errorf("obs: invalid sample value %q", rest)
	}
	s.Value = v
	return s, nil
}

// parseSampleValue parses a sample float, honouring the exposition
// spellings of the special values.
func parseSampleValue(v string) (float64, error) {
	switch v {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(v, 64)
}

// parseLabelBlock parses the inside of a {...} block into labels,
// unescaping values.
func parseLabelBlock(s string) ([]Label, error) {
	var labels []Label
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 || !validName(s[:eq], true) {
			return nil, fmt.Errorf("obs: invalid label name in %q", s)
		}
		key := s[:eq]
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return nil, fmt.Errorf("obs: unquoted label value for %q", key)
		}
		s = s[1:]
		var b strings.Builder
		i := 0
		for ; i < len(s); i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(s[i])
				}
				continue
			}
			if s[i] == '"' {
				break
			}
			b.WriteByte(s[i])
		}
		if i >= len(s) {
			return nil, fmt.Errorf("obs: unterminated label value for %q", key)
		}
		labels = append(labels, Label{Key: key, Value: b.String()})
		s = s[i+1:]
		if len(s) > 0 {
			if s[0] != ',' {
				return nil, fmt.Errorf("obs: expected comma between labels, got %q", s)
			}
			s = s[1:]
		}
	}
	return labels, nil
}

// hasLabels reports whether have includes every label in want.
func hasLabels(have, want []Label) bool {
	for _, w := range want {
		v, ok := labelValue(have, w.Key)
		if !ok || v != w.Value {
			return false
		}
	}
	return true
}

// labelValue finds key in labels.
func labelValue(labels []Label, key string) (string, bool) {
	for _, l := range labels {
		if l.Key == key {
			return l.Value, true
		}
	}
	return "", false
}
