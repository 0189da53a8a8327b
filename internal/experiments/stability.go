package experiments

import (
	"fmt"
	"io"
	"math"

	"cordial/internal/core"
	"cordial/internal/xrand"
)

// StabilityRow summarises one metric's distribution over seeds.
type StabilityRow struct {
	Metric string
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
}

// Stability reports how the headline Table IV comparison behaves across
// independently seeded fleets — the error bars the single-run tables lack.
type Stability struct {
	Seeds int
	Rows  []StabilityRow
}

// RunStability regenerates the fleet with `seeds` different seeds, trains
// Cordial-RF on each, and aggregates the headline metrics (baseline F1,
// Cordial F1, baseline ICR, Cordial ICR, pattern weighted F1).
func RunStability(p Params, seeds int) (*Stability, error) {
	if seeds < 2 {
		return nil, fmt.Errorf("experiments: stability needs ≥2 seeds, got %d", seeds)
	}
	metrics := map[string][]float64{}
	record := func(name string, v float64) {
		metrics[name] = append(metrics[name], v)
	}

	for s := 0; s < seeds; s++ {
		run := p
		run.Spec.Seed = p.Spec.Seed + uint64(s)*101
		fleet, err := run.fleet()
		if err != nil {
			return nil, err
		}
		train, test, err := core.SplitBanks(fleet.Faults, xrand.New(run.SplitSeed+uint64(s)), run.TrainFrac)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig(core.RandomForest)
		cfg.Params = run.Model
		pipe, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		if err := pipe.Fit(train); err != nil {
			return nil, fmt.Errorf("experiments: seed %d: %w", s, err)
		}
		pe, err := core.EvaluatePattern(pipe, test)
		if err != nil {
			return nil, err
		}
		record("pattern weighted F1 (RF)", pe.Weighted.F1)

		prof := run.Spec.Fault.Profile
		geo := prof.Geometry
		cordial, err := core.EvaluatePredictionFor(prof,
			&core.CordialStrategy{Pipeline: pipe, Geometry: geo}, test, cfg.Block, run.Budget)
		if err != nil {
			return nil, err
		}
		baseline, err := core.EvaluatePredictionFor(prof,
			&core.NeighborRowsStrategy{Geometry: geo, Block: cfg.Block}, test, cfg.Block, run.Budget)
		if err != nil {
			return nil, err
		}
		record("Cordial-RF block F1", cordial.Block.F1)
		record("Neighbor Rows block F1", baseline.Block.F1)
		record("Cordial-RF ICR", cordial.ICR.Rate())
		record("Neighbor Rows ICR", baseline.ICR.Rate())
		record("Cordial F1 advantage", cordial.Block.F1-baseline.Block.F1)
	}

	order := []string{
		"pattern weighted F1 (RF)",
		"Neighbor Rows block F1",
		"Cordial-RF block F1",
		"Cordial F1 advantage",
		"Neighbor Rows ICR",
		"Cordial-RF ICR",
	}
	out := &Stability{Seeds: seeds}
	for _, name := range order {
		vals := metrics[name]
		out.Rows = append(out.Rows, summarise(name, vals))
	}
	return out, nil
}

func summarise(name string, vals []float64) StabilityRow {
	row := StabilityRow{Metric: name, Min: math.Inf(1), Max: math.Inf(-1)}
	for _, v := range vals {
		row.Mean += v
		if v < row.Min {
			row.Min = v
		}
		if v > row.Max {
			row.Max = v
		}
	}
	row.Mean /= float64(len(vals))
	for _, v := range vals {
		d := v - row.Mean
		row.Std += d * d
	}
	row.Std = math.Sqrt(row.Std / float64(len(vals)))
	return row
}

// Render writes the stability table.
func (s *Stability) Render(w io.Writer) error {
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "Metric (%d seeds)\tMean\tStd\tMin\tMax\n", s.Seeds)
	for _, r := range s.Rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.3f\n", r.Metric, r.Mean, r.Std, r.Min, r.Max)
	}
	return tw.Flush()
}
