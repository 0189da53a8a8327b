package cordial

// Benchmarks regenerating every table and figure of the paper (one bench per
// experiment, per DESIGN.md §3) plus the DESIGN.md §4 ablations. They run at
// reduced scale so `go test -bench=.` completes in minutes; cmd/cordial-repro
// regenerates the full-scale numbers recorded in EXPERIMENTS.md. The two
// long-session benchmarks pin a property no other harness measures: per-event
// cost independent of history length. Every other cost — training, inference,
// ingest — is measured by the repository benchmark (bash bench/run.sh) or by
// a benchmark in its own package.

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/experiments"
	"cordial/internal/xrand"
)

// benchParams returns a reduced-scale configuration for benchmarking.
func benchParams() experiments.Params {
	p := experiments.Quick()
	p.Spec.UERBanks = 60
	p.Spec.BenignBanks = 150
	p.Model = core.ModelParams{Trees: 15, Depth: 8, Leaves: 15}
	return p
}

func BenchmarkTableI(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTableI(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTableII(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIII_TableIV regenerates both evaluation tables (they share
// one training run, as in the paper).
func BenchmarkTableIII_TableIV(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		t3, t4, err := experiments.RunEvaluation(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := t3.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
		if err := t4.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3a(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3a(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3b(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3b(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationUERBudget(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationUERBudget(p, []int{1, 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBlockGeometry(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationBlockGeometry(p, []int{8, 16}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationWindow(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationWindow(p, []int{32, 64}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFeatures(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationFeatures(p); err != nil {
			b.Fatal(err)
		}
	}
}

// sessionBenchPipeline is the one trained pipeline the long-session
// benchmarks share; training dominates setup and must not be re-paid per
// history length.
var sessionBenchPipeline = sync.OnceValue(func() *Pipeline {
	spec := DefaultFleetSpec()
	spec.UERBanks = 60
	spec.BenignBanks = 0
	spec.Seed = 21
	trainFleet, err := Simulate(spec)
	if err != nil {
		panic(err)
	}
	cfg := DefaultConfig(RandomForest)
	cfg.Params = ModelParams{Trees: 10, Depth: 8}
	pipe, err := TrainWithConfig(cfg, trainFleet.Faults)
	if err != nil {
		panic(err)
	}
	return pipe
})

// longSessionEvents synthesises one bank's n-event history with the shape
// that stresses per-event session cost over a long life: a slowly drifting
// CE cluster with a UER on every 10th event at a previously unseen row, so
// the first three UER rows are tightly clustered (the pattern stage reads
// the bank as an aggregation failure) and block predictions keep firing
// across the whole history instead of only during a short burst.
func longSessionEvents(n int) []Event {
	r := xrand.New(7)
	const baseRow = 4096
	start := time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
	events := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		e := Event{
			Time:  start.Add(time.Duration(i) * 30 * time.Second),
			Class: ecc.ClassCE,
		}
		e.Addr.Row = baseRow + i/10
		if i%10 == 9 {
			e.Class = ecc.ClassUER
		} else {
			e.Addr.Row += r.Intn(4)
		}
		e.Addr.Column = r.Intn(DefaultGeometry.ColsPerBank)
		events = append(events, e)
	}
	return events
}

// BenchmarkSessionOnEvent measures per-event cost of one long-lived bank
// session at two history lengths. The headline metric is ns/event: it must
// stay flat between history=1000 and history=10000 — per-event work that
// grows with session age is exactly the O(history²) failure mode the
// incremental feature state exists to prevent.
func BenchmarkSessionOnEvent(b *testing.B) {
	pipe := sessionBenchPipeline()
	strategy := NewStrategy(pipe, DefaultGeometry)
	for _, h := range []int{1000, 10000} {
		events := longSessionEvents(h)
		b.Run(fmt.Sprintf("history=%d", h), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sess := strategy.NewSession(BankOf(events[0].Addr))
				for _, e := range events {
					sess.OnEvent(e)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(h), "ns/event")
		})
	}
}

// BenchmarkStreamIngestLongSession replays the same single-bank long
// histories through the full engine (1 shard, so the session path is the
// bottleneck): the end-to-end ns/event must stay flat with history length
// just like the bare-session benchmark.
func BenchmarkStreamIngestLongSession(b *testing.B) {
	pipe := sessionBenchPipeline()
	for _, h := range []int{1000, 10000} {
		events := longSessionEvents(h)
		b.Run(fmt.Sprintf("history=%d", h), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := DefaultStreamConfig(pipe)
				cfg.Shards = 1
				cfg.QueueDepth = 4096
				engine, err := NewStreamEngine(cfg)
				if err != nil {
					b.Fatal(err)
				}
				done := make(chan struct{})
				go func() {
					defer close(done)
					for range engine.Actions() {
					}
				}()
				for _, e := range events {
					if err := engine.Ingest(e); err != nil {
						b.Fatal(err)
					}
				}
				if err := engine.Close(); err != nil {
					b.Fatal(err)
				}
				<-done
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(h), "ns/event")
		})
	}
}

// BenchmarkStability aggregates the headline comparison over three seeds.
func BenchmarkStability(b *testing.B) {
	p := benchParams()
	p.Spec.BenignBanks = 0
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunStability(p, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeneratorValidation cross-checks the two generation paths.
func BenchmarkGeneratorValidation(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunGeneratorValidation(p, 30); err != nil {
			b.Fatal(err)
		}
	}
}
