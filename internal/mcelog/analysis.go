package mcelog

import (
	"fmt"
	"sort"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/hbm"
)

// RatePoint is one bucket of an error-rate time series.
type RatePoint struct {
	Start time.Time
	Count int
}

// RateSeries buckets the log's events into fixed-width windows from the
// log's first event to its last, returning one point per bucket (empty
// buckets included). The log should be sorted.
func (l *Log) RateSeries(bucket time.Duration) ([]RatePoint, error) {
	if bucket <= 0 {
		return nil, fmt.Errorf("mcelog: bucket must be positive, got %v", bucket)
	}
	first, last, ok := l.Span()
	if !ok {
		return nil, nil
	}
	n := int(last.Sub(first)/bucket) + 1
	points := make([]RatePoint, n)
	for i := range points {
		points[i].Start = first.Add(time.Duration(i) * bucket)
	}
	for _, e := range l.events {
		i := int(e.Time.Sub(first) / bucket)
		if i >= 0 && i < n {
			points[i].Count++
		}
	}
	return points, nil
}

// FanoFactor measures burstiness of the event process over fixed-width
// buckets: variance-to-mean ratio of per-bucket counts. 1 for a Poisson
// process, >1 for bursty processes (which HBM correctable-error episodes
// are), <1 for regular ones. It needs at least two buckets of span.
func (l *Log) FanoFactor(bucket time.Duration) (float64, error) {
	points, err := l.RateSeries(bucket)
	if err != nil {
		return 0, err
	}
	if len(points) < 2 {
		return 0, fmt.Errorf("mcelog: log spans fewer than 2 buckets of %v", bucket)
	}
	mean := 0.0
	for _, p := range points {
		mean += float64(p.Count)
	}
	mean /= float64(len(points))
	if mean == 0 {
		return 0, fmt.Errorf("mcelog: empty log")
	}
	variance := 0.0
	for _, p := range points {
		d := float64(p.Count) - mean
		variance += d * d
	}
	variance /= float64(len(points))
	return variance / mean, nil
}

// EntityLoad is one entity's event tally.
type EntityLoad struct {
	Key    uint64
	Events int
	UERs   int
}

// TopEntities returns the k entities at the given level of p's hierarchy with
// the most events, ties broken by UER count then key (an address packed under
// p, finer fields zeroed). k ≤ 0 returns all.
func (l *Log) TopEntities(p *hbm.Profile, level hbm.Level, k int) []EntityLoad {
	type agg struct{ events, uers int }
	loads := make(map[uint64]*agg)
	for _, e := range l.events {
		key := p.Layout.EntityKey(e.Addr, level)
		a := loads[key]
		if a == nil {
			a = &agg{}
			loads[key] = a
		}
		a.events++
		if e.Class == ecc.ClassUER {
			a.uers++
		}
	}
	out := make([]EntityLoad, 0, len(loads))
	for key, a := range loads {
		out = append(out, EntityLoad{Key: key, Events: a.events, UERs: a.uers})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Events != out[j].Events {
			return out[i].Events > out[j].Events
		}
		if out[i].UERs != out[j].UERs {
			return out[i].UERs > out[j].UERs
		}
		return out[i].Key < out[j].Key
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// Burst is a maximal run of events whose successive gaps stay within
// maxGap.
type Burst struct {
	Start, End time.Time
	Events     int
}

// Bursts segments a sorted log into bursts separated by gaps longer than
// maxGap, returning bursts with at least minEvents events.
func (l *Log) Bursts(maxGap time.Duration, minEvents int) ([]Burst, error) {
	if maxGap <= 0 {
		return nil, fmt.Errorf("mcelog: maxGap must be positive, got %v", maxGap)
	}
	if minEvents < 1 {
		minEvents = 1
	}
	var out []Burst
	var cur Burst
	for i, e := range l.events {
		if i == 0 || e.Time.Sub(cur.End) > maxGap {
			if i > 0 && cur.Events >= minEvents {
				out = append(out, cur)
			}
			cur = Burst{Start: e.Time, End: e.Time, Events: 1}
			continue
		}
		cur.End = e.Time
		cur.Events++
	}
	if len(l.events) > 0 && cur.Events >= minEvents {
		out = append(out, cur)
	}
	return out, nil
}
