// Quickstart: simulate an HBM fleet, train Cordial, and compare it against
// the industrial neighbor-rows baseline — the paper's headline result
// (Table IV) in ~40 lines of library use.
package main

import (
	"fmt"
	"log"

	"cordial"
)

func main() {
	// 1. Simulate a fleet-scale error log with ground truth (stands in for
	//    the paper's proprietary BMC dataset).
	spec := cordial.DefaultFleetSpec()
	spec.UERBanks = 200
	spec.BenignBanks = 800
	spec.Seed = 42
	fleet, err := cordial.Simulate(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d error events across %d faulty banks\n",
		fleet.Log().Len(), len(fleet.Faults))

	// 2. Split 70/30 at bank granularity, as in the paper.
	train, test, err := cordial.Split(fleet.Faults, 7, 0.7)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Train Cordial with the Random Forest backend (the paper's best).
	pipe, err := cordial.Train(cordial.RandomForest, train)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained Cordial-RF on %d banks (calibrated block threshold %.2f)\n",
		len(train), pipe.Config().Threshold)

	// 4. Evaluate pattern classification (Table III).
	pat, err := cordial.EvaluatePattern(pipe, test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pattern classification: weighted P=%.3f R=%.3f F1=%.3f\n",
		pat.Weighted.Precision, pat.Weighted.Recall, pat.Weighted.F1)

	// 5. Evaluate cross-row prediction and isolation coverage (Table IV),
	//    against the neighbor-rows baseline.
	res, err := cordial.Evaluate(pipe, test)
	if err != nil {
		log.Fatal(err)
	}
	base, err := cordial.EvaluateStrategy(
		cordial.NeighborRowsBaseline(cordial.DefaultGeometry, pipe.Config().Block),
		test, pipe.Config().Block)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-14s  %9s  %6s  %8s  %6s\n", "method", "precision", "recall", "F1 score", "ICR")
	for _, r := range []*cordial.PredictionEval{base, res} {
		fmt.Printf("%-14s  %9.3f  %6.3f  %8.3f  %5.1f%%\n",
			r.Name, r.Block.Precision, r.Block.Recall, r.Block.F1, r.ICR.Rate()*100)
	}
	fmt.Printf("\nCordial improves F1 by %.1f%% and ICR by %.1f%% over the baseline\n",
		(res.Block.F1/base.Block.F1-1)*100, (res.ICR.Rate()/base.ICR.Rate()-1)*100)
	if auc, ok := res.BlockAUC(); ok {
		fmt.Printf("threshold-free block ranking quality (ROC AUC): %.3f\n", auc)
	}
}
