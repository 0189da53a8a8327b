package cordial_test

import (
	"fmt"
	"log"
	"sort"

	"cordial"
	"cordial/internal/core"
)

// Simulate an HBM fleet, train Cordial and compare it against the industrial
// neighbor-rows baseline: the paper's headline result (Table IV) in a few
// dozen lines of library use.
func Example_quickstart() {
	// 1. Simulate a fleet-scale error log with ground truth (stands in for
	//    the paper's proprietary BMC dataset).
	spec := cordial.DefaultFleetSpec()
	spec.UERBanks, spec.BenignBanks, spec.Seed = 200, 800, 42
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
	fmt.Printf("%-14s  %9s  %6s  %8s  %6s\n", "method", "precision", "recall", "F1 score", "ICR")
	for _, r := range []*cordial.PredictionEval{base, res} {
		fmt.Printf("%-14s  %9.3f  %6.3f  %8.3f  %5.1f%%\n",
			r.Name, r.Block.Precision, r.Block.Recall, r.Block.F1, r.ICR.Rate()*100)
	}
	fmt.Printf("Cordial improves F1 by %.1f%% and ICR by %.1f%% over the baseline\n",
		(res.Block.F1/base.Block.F1-1)*100, (res.ICR.Rate()/base.ICR.Rate()-1)*100)
	if auc, ok := res.BlockAUC(); ok {
		fmt.Printf("threshold-free block ranking quality (ROC AUC): %.3f\n", auc)
	}
	// Output:
	// simulated 10835 error events across 200 faulty banks
	// trained Cordial-RF on 140 banks (calibrated block threshold 0.35)
	// pattern classification: weighted P=0.948 R=0.950 F1=0.949
	// method          precision  recall  F1 score     ICR
	// Neighbor Rows       0.310   0.526     0.390    9.1%
	// Cordial-RF          0.469   0.642     0.542   33.2%
	// Cordial improves F1 by 38.9% and ICR by 265.9% over the baseline
	// threshold-free block ranking quality (ROC AUC): 0.847
}

// Drive a trained Cordial pipeline in streaming mode, the way cmd/cordial-serve
// does: a live month of fleet events flows through the sharded engine, each
// bank's session accumulates its context, and mitigation actions (row and bank
// spares) are emitted the moment the pipeline has enough evidence.
func ExampleNewStreamEngine() {
	// Train on one simulated month...
	spec := cordial.DefaultFleetSpec()
	spec.UERBanks, spec.BenignBanks, spec.Seed = 90, 100, 1
	month, err := cordial.Simulate(spec)
	if err != nil {
		log.Fatal(err)
	}
	cfg := cordial.DefaultConfig(cordial.RandomForest)
	cfg.Params = cordial.ModelParams{Trees: 25, Depth: 8, Leaves: 15}
	pipe, err := cordial.TrainWithConfig(cfg, month.Faults)
	if err != nil {
		log.Fatal(err)
	}

	// ...then monitor a fresh month, live.
	spec.UERBanks, spec.BenignBanks, spec.Seed = 40, 100, 2
	live, err := cordial.Simulate(spec)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := cordial.NewStreamEngine(cordial.DefaultStreamConfig(pipe))
	if err != nil {
		log.Fatal(err)
	}

	// Consume actions as the engine emits them, as an isolation controller
	// would.
	var actions, bankSpares, rows int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range engine.Actions() {
			actions++
			if a.Kind == cordial.ActionBankSpare {
				bankSpares++
			}
			rows += len(a.Rows)
		}
	}()
	events := live.Log().Events()
	for i := 0; i < len(events); i += 1024 {
		if _, _, err := engine.IngestBatch(events[i:min(i+1024, len(events))]); err != nil {
			log.Fatal(err)
		}
	}
	// Close folds every event in flight, then closes the action channel.
	if err := engine.Close(); err != nil {
		log.Fatal(err)
	}
	<-done

	stats := engine.Stats()
	fmt.Printf("monitored %d events across %d sessions\n", stats.Processed, stats.SessionsLive)
	fmt.Printf("actions: %d (bank spares: %d, rows isolated: %d)\n", actions, bankSpares, rows)

	// How well did the live decisions anticipate the month's failures?
	res, err := cordial.Evaluate(pipe, live.Faults)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ICR of the live month: %.1f%% of UER rows isolated before failing\n", res.ICR.Rate()*100)

	// The busiest banks, for the on-call engineer, read from the engine's
	// session snapshots.
	var busiest []cordial.SessionStats
	seen := map[cordial.BankAddress]bool{}
	for _, ev := range live.Log().Events() {
		if bank := cordial.BankOf(ev.Addr); !seen[bank] {
			seen[bank] = true
			if st, ok := engine.Session(bank); ok {
				busiest = append(busiest, st)
			}
		}
	}
	sort.Slice(busiest, func(i, j int) bool {
		if busiest[i].Events != busiest[j].Events {
			return busiest[i].Events > busiest[j].Events
		}
		return busiest[i].Bank.String() < busiest[j].Bank.String()
	})
	fmt.Println("busiest banks:")
	for _, st := range busiest[:3] {
		status := "watching"
		switch {
		case st.BankSpared:
			status = "bank spared"
		case st.RowsIsolated > 0:
			status = fmt.Sprintf("%d rows isolated", st.RowsIsolated)
		}
		fmt.Printf("  %4d events  %s  (%s)\n", st.Events, st.Bank, status)
	}
	// Output:
	// monitored 1767 events across 147 sessions
	// actions: 144 (bank spares: 4, rows isolated: 1755)
	// ICR of the live month: 39.6% of UER rows isolated before failing
	// busiest banks:
	//    155 events  n32.u4.h0.s1.c0.p0.g0.b3.r0.col0  (bank spared)
	//     71 events  n95.u7.h1.s0.c2.p1.g3.b2.r0.col0  (bank spared)
	//     62 events  n83.u7.h1.s0.c0.p0.g3.b1.r0.col0  (bank spared)
}

// How many spare rows per bank does cross-row prediction need to pay off?
// Score three mitigation policies offline — the in-row paradigm (§II-C), the
// neighbor-rows heuristic (§V-B) and Cordial — at spare-row budgets from 4 to
// 128 rows per bank: the isolation coverage rate (ICR) is the share of the
// test banks' failing rows isolated before their first UER.
func Example_sparingPolicy() {
	spec := cordial.DefaultFleetSpec()
	spec.UERBanks, spec.BenignBanks, spec.Seed = 250, 600, 11
	fleet, err := cordial.Simulate(spec)
	if err != nil {
		log.Fatal(err)
	}
	train, test, err := cordial.Split(fleet.Faults, 3, 0.7)
	if err != nil {
		log.Fatal(err)
	}
	cfg := cordial.DefaultConfig(cordial.RandomForest)
	cfg.Params = cordial.ModelParams{Trees: 25, Depth: 8, Leaves: 15}
	pipe, err := cordial.TrainWithConfig(cfg, train)
	if err != nil {
		log.Fatal(err)
	}
	geo, block := cordial.DefaultGeometry, pipe.Config().Block
	strategies := []cordial.Strategy{
		cordial.InRowBaseline(geo),
		cordial.NeighborRowsBaseline(geo, block),
		cordial.NewStrategy(pipe, geo),
	}

	budgets := []int{4, 8, 16, 32, 64, 128}
	fmt.Printf("%-14s", "rows/bank:")
	for _, rows := range budgets {
		fmt.Printf("%7d", rows)
	}
	fmt.Println()
	for _, s := range strategies {
		fmt.Printf("%-14s", s.Name())
		for _, rows := range budgets {
			budget := cordial.Budget{RowSparesPerBank: rows, BankSparesPerChannel: 2}
			res, err := core.EvaluatePrediction(s, test, block, budget)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%6.1f%%", res.ICR.Rate()*100)
		}
		fmt.Println()
	}
	// Output:
	// rows/bank:          4      8     16     32     64    128
	// In-row           4.6%   4.9%   5.1%   5.6%   5.7%   5.7%
	// Neighbor Rows    1.5%   2.8%   4.9%   8.7%   8.9%   8.9%
	// Cordial-RF      17.6%  18.7%  19.7%  21.8%  22.5%  22.5%
}
