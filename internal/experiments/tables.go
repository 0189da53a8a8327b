package experiments

import (
	"fmt"
	"io"

	"cordial/internal/core"
	"cordial/internal/faultsim"
	"cordial/internal/hbm"
	"cordial/internal/trace"
	"cordial/internal/xrand"
)

// TableI is the in-row predictable ratio of UERs per micro-level (paper
// Table I).
type TableI struct {
	Rows []trace.SuddenStats
}

// RunTableI synthesises a fleet and computes the per-level sudden/non-sudden
// UER statistics.
func RunTableI(p Params) (*TableI, error) {
	fleet, err := p.fleet()
	if err != nil {
		return nil, err
	}
	return &TableI{Rows: trace.SuddenByLevel(p.Spec.Fault.Profile, fleet.Log())}, nil
}

// Render writes the paper-style table.
func (t *TableI) Render(w io.Writer) error {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Micro-level\tSudden UER\tNon-sudden UER\tPredictable Ratio")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\n", r.Level, r.Sudden, r.NonSudden, pct(r.PredictableRatio()))
	}
	return tw.Flush()
}

// RowLevelSuddenRatio returns the row-level sudden fraction (paper: 95.61%).
func (t *TableI) RowLevelSuddenRatio() float64 {
	for _, r := range t.Rows {
		if r.Level == hbm.LevelRow {
			return 1 - r.PredictableRatio()
		}
	}
	return 0
}

// TableII is the dataset summary per micro-level (paper Table II).
type TableII struct {
	Rows []trace.LevelSummary
}

// RunTableII synthesises a fleet and counts affected entities per level.
func RunTableII(p Params) (*TableII, error) {
	fleet, err := p.fleet()
	if err != nil {
		return nil, err
	}
	return &TableII{Rows: trace.SummaryByLevel(p.Spec.Fault.Profile, fleet.Log())}, nil
}

// Render writes the paper-style table.
func (t *TableII) Render(w io.Writer) error {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Micro-level\tWith CE\tWith UEO\tWith UER\tTotal Count")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\n", r.Level, r.WithCE, r.WithUEO, r.WithUER, r.Total)
	}
	return tw.Flush()
}

// TableIIIRow is one backend's pattern-classification performance.
type TableIIIRow struct {
	Model    core.ModelKind
	PerClass map[faultsim.Class]ClassScore
	Weighted ClassScore
}

// ClassScore is a precision/recall/F1 triple.
type ClassScore struct {
	Precision float64
	Recall    float64
	F1        float64
}

// TableIII is the failure-pattern classification comparison (paper
// Table III).
type TableIII struct {
	Rows []TableIIIRow
}

// TableIVRow is one strategy's cross-row prediction performance.
type TableIVRow struct {
	Name      string
	Precision float64
	Recall    float64
	F1        float64
	// HasBlocks reports whether the strategy made block predictions at
	// all; in-row methods do not, and their P/R/F1 render as "—".
	HasBlocks bool
	// ICR is the isolation coverage rate crediting all mechanisms.
	ICR float64
	// CrossRowICR credits row-granular isolation only.
	CrossRowICR float64
	// AUC is the threshold-free ROC AUC of the block probabilities;
	// HasAUC is false for strategies that emit no scores.
	AUC    float64
	HasAUC bool
}

// TableIV is the failure-prediction method comparison (paper Table IV).
type TableIV struct {
	Rows []TableIVRow
}

// RunEvaluation synthesises a fleet, splits it 70/30 at bank level, trains
// all three backends, and produces both Table III (pattern classification)
// and Table IV (cross-row prediction vs baselines). Training once for both
// tables mirrors the paper's single evaluation run.
func RunEvaluation(p Params) (*TableIII, *TableIV, error) {
	fleet, err := p.fleet()
	if err != nil {
		return nil, nil, err
	}
	train, test, err := core.SplitBanks(fleet.Faults, xrand.New(p.SplitSeed), p.TrainFrac)
	if err != nil {
		return nil, nil, err
	}
	geo := p.Spec.Fault.Profile.Geometry

	t3 := &TableIII{}
	t4 := &TableIV{}

	// Baselines first, matching the paper's row order.
	blockSpec := core.DefaultConfig(core.RandomForest).Block
	baseline := &core.NeighborRowsStrategy{Geometry: geo, Block: blockSpec}
	bres, err := core.EvaluatePredictionFor(p.Spec.Fault.Profile, baseline, test, blockSpec, p.Budget)
	if err != nil {
		return nil, nil, err
	}
	t4.Rows = append(t4.Rows, predictionRow(bres))

	inrow := &core.InRowStrategy{Geometry: geo}
	ires, err := core.EvaluatePredictionFor(p.Spec.Fault.Profile, inrow, test, blockSpec, p.Budget)
	if err != nil {
		return nil, nil, err
	}
	t4.Rows = append(t4.Rows, predictionRow(ires))

	calchas := &core.Calchas{Params: p.Model, Seed: p.SplitSeed}
	if err := calchas.Fit(train); err != nil {
		return nil, nil, fmt.Errorf("experiments: fitting Calchas-lite: %w", err)
	}
	cres, err := core.EvaluatePredictionFor(p.Spec.Fault.Profile, calchas, test, blockSpec, p.Budget)
	if err != nil {
		return nil, nil, err
	}
	t4.Rows = append(t4.Rows, predictionRow(cres))

	for _, kind := range core.AllModelKinds {
		cfg := core.DefaultConfig(kind)
		cfg.Params = p.Model
		pipe, err := core.New(cfg)
		if err != nil {
			return nil, nil, err
		}
		if err := pipe.Fit(train); err != nil {
			return nil, nil, fmt.Errorf("experiments: fitting %v: %w", kind, err)
		}

		pe, err := core.EvaluatePattern(pipe, test)
		if err != nil {
			return nil, nil, err
		}
		row := TableIIIRow{Model: kind, PerClass: make(map[faultsim.Class]ClassScore)}
		for class, rep := range pe.PerClass {
			row.PerClass[class] = ClassScore{Precision: rep.Precision, Recall: rep.Recall, F1: rep.F1}
		}
		row.Weighted = ClassScore{Precision: pe.Weighted.Precision, Recall: pe.Weighted.Recall, F1: pe.Weighted.F1}
		t3.Rows = append(t3.Rows, row)

		strat := &core.CordialStrategy{Pipeline: pipe, Geometry: geo}
		res, err := core.EvaluatePredictionFor(p.Spec.Fault.Profile, strat, test, cfg.Block, p.Budget)
		if err != nil {
			return nil, nil, err
		}
		t4.Rows = append(t4.Rows, predictionRow(res))
	}
	return t3, t4, nil
}

func predictionRow(res *core.PredictionEval) TableIVRow {
	row := TableIVRow{
		Name:        res.Name,
		Precision:   res.Block.Precision,
		Recall:      res.Block.Recall,
		F1:          res.Block.F1,
		HasBlocks:   res.BlockOutcomes.Total() > 0,
		ICR:         res.ICR.Rate(),
		CrossRowICR: res.CrossRowICR.Rate(),
	}
	row.AUC, row.HasAUC = res.BlockAUC()
	return row
}

// Render writes the paper-style table.
func (t *TableIII) Render(w io.Writer) error {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Pattern\tModel\tPrecision\tRecall\tF1 Score")
	for _, class := range faultsim.AllClasses {
		for _, row := range t.Rows {
			s := row.PerClass[class]
			fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%.3f\n", class, row.Model, s.Precision, s.Recall, s.F1)
		}
	}
	for _, row := range t.Rows {
		fmt.Fprintf(tw, "Weighted Average\t%s\t%.3f\t%.3f\t%.3f\n",
			row.Model, row.Weighted.Precision, row.Weighted.Recall, row.Weighted.F1)
	}
	return tw.Flush()
}

// Best returns the backend with the highest weighted F1. Exact ties go to
// the later row; AllModelKinds lists Random Forest last, so a backend must
// strictly beat RF to displace it — mirroring the paper's preference for RF
// as the deployment choice when scores are indistinguishable.
func (t *TableIII) Best() core.ModelKind {
	best := core.ModelKind(0)
	bestF1 := -1.0
	for _, row := range t.Rows {
		if row.Weighted.F1 >= bestF1 {
			best, bestF1 = row.Model, row.Weighted.F1
		}
	}
	return best
}

// Render writes the paper-style table.
func (t *TableIV) Render(w io.Writer) error {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Methods\tPrecision\tRecall\tF1 Score\tAUC\tICR (%)\tCross-row ICR (%)")
	for _, row := range t.Rows {
		auc := "—"
		if row.HasAUC {
			auc = fmt.Sprintf("%.3f", row.AUC)
		}
		if row.HasBlocks {
			fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%s\t%s\t%s\n",
				row.Name, row.Precision, row.Recall, row.F1, auc, pct(row.ICR), pct(row.CrossRowICR))
		} else {
			fmt.Fprintf(tw, "%s\t—\t—\t—\t%s\t%s\t%s\n",
				row.Name, auc, pct(row.ICR), pct(row.CrossRowICR))
		}
	}
	return tw.Flush()
}
