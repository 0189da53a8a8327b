package stream

import (
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/mcelog"
	"cordial/internal/obs"
)

// countingClock is the wall clock, counting its reads.
type countingClock struct {
	obs.SystemClock
	reads atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.reads.Add(1)
	return c.SystemClock.Now()
}

// TestClockReadsPerEvent: the serving path reads time only on the engine's
// clock and only for a sampled stage occurrence, every read one of a sample's
// two, so 14 336 events make at most 0.1 clock reads each through an
// in-memory engine, a durable one, and the HTTP server with either codec,
// where every event used to read the wall clock twice to time its fold alone.
func TestClockReadsPerEvent(t *testing.T) {
	evs := append(quietFleet(1024), quietFleet(1024)...) // 14 events a bank
	for i := range evs {
		if i >= len(evs)/2 {
			evs[i].Time = evs[i].Time.Add(24 * time.Hour)
		}
		if i%10 == 0 { // quiet appends, promotions and decisions all
			evs[i].Class = ecc.ClassUER
		}
	}
	for _, tc := range []struct {
		name    string
		durable bool
		ingest  func(t *testing.T, e *Engine)
	}{
		{"memory", false, func(t *testing.T, e *Engine) { ingestChunks(t, e, evs) }},
		{"durable", true, func(t *testing.T, e *Engine) { ingestChunks(t, e, evs) }},
		{"http-jsonl", false, func(t *testing.T, e *Engine) {
			post(t, NewServer(e, ServerConfig{}), jsonlBody(t, evs...))
		}},
		{"http-wire", false, func(t *testing.T, e *Engine) {
			postBin(t, NewServer(e, ServerConfig{}), binBody(t, mcelog.DefaultFrameEvents, evs...), http.StatusOK)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := &countingClock{}
			cfg := Config{Shards: 2, Strategy: quietFake{&fakeStrategy{budget: 3}}, Clock: clock}
			if tc.durable {
				cfg.Durability = DurabilityConfig{Dir: t.TempDir()}
			}
			e := newTestEngine(t, cfg)
			defer e.Close()
			before := clock.reads.Load()
			tc.ingest(t, e)
			if err := e.Drain(30 * time.Second); err != nil {
				t.Fatal(err)
			}
			after := clock.reads.Load()
			// Every read since New's start stamp is a stage sample's two: the
			// WAL's and the server's stages too read the engine's clock.
			var samples uint64
			for _, stage := range []string{"decode", "queue_wait", "wal_append", "fsync", "fold"} {
				samples += e.Metrics().Stage(stage).Count()
			}
			if after-1 != int64(2*samples) {
				t.Errorf("%d clock reads after the start stamp, %d stage samples", after-1, samples)
			}
			perEvent := float64(after-before) / float64(len(evs))
			if st := e.Stats(); st.Processed != uint64(len(evs)) || st.ActionsEmitted == 0 {
				t.Fatalf("processed %d of %d events, %d actions", st.Processed, len(evs), st.ActionsEmitted)
			}
			t.Logf("%.4f clock reads per event", perEvent)
			if perEvent > 0.1 {
				t.Errorf("%.4f clock reads per event, want ≤ 0.1", perEvent)
			}
		})
	}
}
