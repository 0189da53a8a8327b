package core

import (
	"fmt"
	"math"
	"time"

	"cordial/internal/faultsim"
	"cordial/internal/features"
	"cordial/internal/hbm"
	"cordial/internal/metrics"
	"cordial/internal/mltree"
	"cordial/internal/sparing"
	"cordial/internal/xrand"
)

// SplitBanks partitions banks 70/30 (or any fraction) at bank granularity,
// stratified by ground-truth class so rare classes appear on both sides.
func SplitBanks(banks []*faultsim.BankFault, rng *xrand.RNG, trainFrac float64) (train, test []*faultsim.BankFault, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, fmt.Errorf("core: train fraction %g out of (0,1)", trainFrac)
	}
	byClass := make(map[faultsim.Class][]*faultsim.BankFault)
	for _, b := range banks {
		byClass[b.Class()] = append(byClass[b.Class()], b)
	}
	for _, class := range faultsim.AllClasses {
		group := byClass[class]
		if len(group) == 0 {
			continue
		}
		rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
		k := int(math.Round(float64(len(group)) * trainFrac))
		if k == 0 {
			k = 1
		}
		if k > len(group) {
			k = len(group)
		}
		train = append(train, group[:k]...)
		test = append(test, group[k:]...)
	}
	if len(train) == 0 || len(test) == 0 {
		return nil, nil, fmt.Errorf("core: bank split produced an empty side (%d/%d)", len(train), len(test))
	}
	return train, test, nil
}

// PatternEval is the Table III result for one backend.
type PatternEval struct {
	Confusion metrics.Confusion
	PerClass  map[faultsim.Class]metrics.Report
	Weighted  metrics.Report
}

// EvaluatePattern classifies every test bank and scores the result.
func EvaluatePattern(p *Pipeline, banks []*faultsim.BankFault) (*PatternEval, error) {
	if !p.Fitted() {
		return nil, fmt.Errorf("core: pipeline not fitted")
	}
	eval := &PatternEval{PerClass: make(map[faultsim.Class]metrics.Report)}
	// Extract every classifiable bank's feature vector, then classify the
	// whole test set in one batch over the model's arena.
	st, err := p.NewBankState()
	if err != nil {
		return nil, err
	}
	vecs, truths := patternSamples(banks, st, p.cfg.ErrBits)
	if len(vecs) == 0 {
		return nil, fmt.Errorf("core: no classifiable banks in the test set")
	}
	for i, got := range mltree.PredictLabels(p.patternModel, vecs) {
		eval.Confusion.Add(truths[i], got)
	}
	for _, class := range faultsim.AllClasses {
		eval.PerClass[class] = eval.Confusion.ClassReport(int(class))
	}
	eval.Weighted = eval.Confusion.WeightedAverage()
	return eval, nil
}

// PredictionEval is the Table IV result for one strategy.
type PredictionEval struct {
	// Name is the strategy's display name.
	Name string
	// Block holds precision/recall/F1 over all block predictions.
	Block metrics.Report
	// BlockOutcomes is the underlying binary confusion.
	BlockOutcomes metrics.Binary
	// BlockScores accumulates per-block probabilities (when the strategy
	// provides them) for the threshold-free AUC.
	BlockScores metrics.Scored
	// ICR is the isolation coverage over all test-bank UER rows, crediting
	// any isolation mechanism (row sparing and bank sparing).
	ICR metrics.ICR
	// CrossRowICR credits only row-granular isolation — the paper's ICR,
	// which measures what the cross-row predictions themselves cover.
	CrossRowICR metrics.ICR
	// Usage summarises consumed spare resources.
	Usage sparing.UsageStats
}

// EvaluatePrediction is EvaluatePredictionFor hbm2e. Bench-only until ROADMAP
// item 15.
func EvaluatePrediction(s Strategy, banks []*faultsim.BankFault, spec features.BlockSpec, budget sparing.Budget) (*PredictionEval, error) {
	return EvaluatePredictionFor(hbm.HBM2E, s, banks, spec, budget)
}

// EvaluatePredictionFor replays every test bank's event stream through the
// strategy, applies its decisions on a fresh sparing engine over p's banks,
// and scores block predictions (precision/recall/F1) and isolation coverage
// (ICR).
//
// Block ground truth at a prediction step: a block is positive when a
// not-yet-failed UER row (first UER strictly after the step's time) falls in
// the block's row range. ICR ground truth: a UER row counts as covered when
// an isolation action that includes it took effect strictly before the row's
// first UER.
func EvaluatePredictionFor(p *hbm.Profile, s Strategy, banks []*faultsim.BankFault, spec features.BlockSpec, budget sparing.Budget) (*PredictionEval, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	engine, err := sparing.NewEngineFor(p, budget)
	if err != nil {
		return nil, err
	}
	eval := &PredictionEval{Name: s.Name()}

	// Each decision is applied and scored before the next is made, so one
	// buffer serves them all (SpareRows keeps no reference to the rows).
	var buf DecisionBuffer
	for _, bf := range banks {
		session := s.NewSession(bf.Bank)
		for _, e := range bf.Events {
			d := session.Decide(e, &buf)
			if d.SpareBank {
				// Exhausted bank spares degrade coverage but are not an
				// evaluation error — that is the cost model at work.
				_ = engine.SpareBank(bf.Bank, e.Time)
			}
			if len(d.IsolateRows) > 0 {
				engine.SpareRows(bf.Bank, d.IsolateRows, e.Time)
			}
			if d.Blocks != nil {
				scoreBlocks(eval, d.Blocks, spec, bf, e.Time)
			}
		}
		for i, row := range bf.UERRows {
			eval.ICR.Add(engine.IsRowIsolatedBefore(bf.Bank, row, bf.UERTimes[i]))
			eval.CrossRowICR.Add(engine.IsRowSparedBefore(bf.Bank, row, bf.UERTimes[i]))
		}
	}
	eval.Block = eval.BlockOutcomes.Report()
	eval.Usage = engine.Usage()
	return eval, nil
}

// BlockAUC returns the threshold-free ROC AUC of the block probabilities, or
// ok=false when the strategy provided no scores (or one class is absent).
func (e *PredictionEval) BlockAUC() (float64, bool) {
	return e.BlockScores.AUC()
}

// scoreBlocks accumulates one step's block predictions against ground truth:
// a block is positive when any UER event (new row or recurrence) lands in it
// strictly after the prediction time. Probabilities, when present, feed the
// threshold-free AUC alongside the thresholded confusion.
func scoreBlocks(eval *PredictionEval, pred *BlockPrediction, spec features.BlockSpec, bf *faultsim.BankFault, now time.Time) {
	for b := 0; b < max(len(pred.Predicted), len(pred.Probs)); b++ {
		actual := blockHasFutureUER(bf, spec, pred.AnchorRow, b, now)
		if pred.Predicted != nil {
			eval.BlockOutcomes.Add(actual, pred.Predicted[b])
		} else {
			eval.BlockOutcomes.Add(actual, pred.Probs[b] >= pred.Threshold)
		}
		if pred.Probs != nil {
			eval.BlockScores.Add(pred.Probs[b], actual)
		}
	}
}
