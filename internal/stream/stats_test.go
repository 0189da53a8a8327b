package stream

import (
	"encoding/json"
	"testing"
	"time"

	"cordial/internal/obs"
)

// TestLatencySampler: a LatencySnapshot is a reading of one obs.Histogram —
// count, mean and max exact, the quantiles the scrape-side estimate.
func TestLatencySampler(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("lat_seconds", "", nil)
	if s := latencySnapshot(h); s != (LatencySnapshot{}) {
		t.Fatalf("empty histogram snapshot %+v", s)
	}
	if s := latencySnapshot(nil); s != (LatencySnapshot{}) {
		t.Fatalf("nil histogram snapshot %+v", s)
	}
	for i := 1; i <= 100; i++ {
		h.Observe((time.Duration(i) * time.Millisecond).Seconds())
	}
	s := latencySnapshot(h)
	if s.Count != 100 || s.Max != 100*time.Millisecond || s.Mean != 50500*time.Microsecond {
		t.Fatalf("snapshot %+v", s)
	}
	if s.P50 < 40*time.Millisecond || s.P50 > 60*time.Millisecond {
		t.Errorf("p50 %v out of range", s.P50)
	}
	if s.P99 < s.P90 || s.P90 < s.P50 {
		t.Errorf("quantiles not monotone: %+v", s)
	}
	p99, ok := h.Quantile(0.99)
	if want := time.Duration(p99 * 1e9); !ok || s.P99 != want {
		t.Errorf("P99 %v, histogram estimate %v", s.P99, want)
	}

	out, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"count":100,"mean":"50.5ms","p50":"50ms","p90":"90ms","p99":"99ms","max":"100ms"}`; string(out) != want {
		t.Errorf("JSON %s, want %s", out, want)
	}
}

// TestQuantileSmallSampleTail: with a handful of samples the estimate must
// not understate the tail below the bucket that holds the largest one — at
// n=10 the P99 lies in the top occupied bucket, and a single sample's
// quantiles all lie in its bucket.
func TestQuantileSmallSampleTail(t *testing.T) {
	h := obs.NewRegistry().Histogram("lat_seconds", "", nil)
	for i := 1; i <= 10; i++ {
		h.Observe((time.Duration(i) * time.Millisecond).Seconds())
	}
	s := latencySnapshot(h)
	if s.P99 <= 5*time.Millisecond || s.P99 > 10*time.Millisecond {
		t.Errorf("P99 over 1..10ms = %v, want in the (5ms, 10ms] bucket", s.P99)
	}
	if s.P50 <= 2500*time.Microsecond || s.P50 > 5*time.Millisecond {
		t.Errorf("P50 over 1..10ms = %v, want in the (2.5ms, 5ms] bucket", s.P50)
	}
	one := obs.NewRegistry().Histogram("lat_seconds", "", nil)
	one.Observe((7 * time.Millisecond).Seconds())
	s = latencySnapshot(one)
	for _, p := range []time.Duration{s.P50, s.P90, s.P99} {
		if p <= 5*time.Millisecond || p > 10*time.Millisecond {
			t.Errorf("single 7ms sample: quantiles %v/%v/%v, want in (5ms, 10ms]", s.P50, s.P90, s.P99)
		}
	}
	if s.Max != 7*time.Millisecond || s.Mean != 7*time.Millisecond {
		t.Errorf("single 7ms sample: max %v mean %v", s.Max, s.Mean)
	}
}
