// Retraining: operate Cordial across a fleet whose failure behaviour drifts
// — a single-row-dominated first regime gives way to a scattered-heavy one
// (a bad firmware rollout, say). This example runs the ONLINE lifecycle
// loop in-process: a versioned model registry, a stream engine whose
// sessions pin the model version they were born under, and a lifecycle
// manager that detects the drift in the live class mix, refits a candidate
// from the engine's own journal (self-labelled, no ground truth), shadow-
// scores it against the incumbent on live traffic, and hot-swaps it only
// if its isolation coverage holds up. See DESIGN.md §13.
package main

import (
	"fmt"
	"log"
	"log/slog"
	"os"
	"time"

	"cordial"
)

func main() {
	// Two regimes, 45 days each.
	spec := cordial.DriftSpec{
		Fault: cordial.DefaultFaultConfig(),
		Regimes: []cordial.Regime{
			{
				Duration: 45 * 24 * time.Hour,
				UERBanks: 150,
				Weights: cordial.PatternWeights{
					cordial.PatternSingleRow: 75,
					cordial.PatternDoubleRow: 10,
					cordial.PatternScattered: 15,
				},
			},
			{
				Duration: 45 * 24 * time.Hour,
				UERBanks: 150,
				Weights: cordial.PatternWeights{
					cordial.PatternSingleRow:   25,
					cordial.PatternScattered:   55,
					cordial.PatternWholeColumn: 20,
				},
			},
		},
		Seed: 7,
	}
	fleet, err := cordial.SimulateDrift(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("drift fleet: %d banks over two regimes\n", len(fleet.Faults))
	for r := 0; r < 2; r++ {
		fmt.Printf("  regime %d mix: %v\n", r, fleet.MixOf(r))
	}
	var regime0, regime1 []*cordial.BankFault
	for i, bf := range fleet.Faults {
		if fleet.RegimeOf[i] == 0 {
			regime0 = append(regime0, bf)
		} else {
			regime1 = append(regime1, bf)
		}
	}

	// Boot model: trained offline on regime-0 ground truth, installed as
	// version 1 of an in-memory registry (use Dir for a persistent one).
	cfg := cordial.DefaultConfig(cordial.RandomForest)
	cfg.Params = cordial.ModelParams{Trees: 30, Depth: 8}
	boot, err := cordial.TrainWithConfig(cfg, regime0)
	if err != nil {
		log.Fatal(err)
	}
	reg, err := cordial.OpenModelRegistry(cordial.ModelRegistryOptions{
		Geometry: cordial.DefaultGeometry,
	})
	if err != nil {
		log.Fatal(err)
	}
	bootMeta, err := reg.Install(boot, "boot")
	if err != nil {
		log.Fatal(err)
	}
	if err := reg.Activate(bootMeta.Version); err != nil {
		log.Fatal(err)
	}

	// The engine serves the registry's active version; the journal is what
	// the lifecycle manager retrains from, so durability is on.
	walDir, err := os.MkdirTemp("", "cordial-retrain-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(walDir)
	scfg := cordial.DefaultStreamConfig(boot)
	scfg.Models = reg // serves the registry's active version, not boot itself
	scfg.Durability = cordial.StreamDurability{Dir: walDir}
	scfg.Logger = slog.New(slog.DiscardHandler)
	engine, err := cordial.NewStreamEngine(scfg)
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		for range engine.Actions() {
		}
	}()
	mgr, err := cordial.NewLifecycleManager(cordial.LifecycleConfig{
		Engine:      engine,
		Registry:    reg,
		Geometry:    cordial.DefaultGeometry,
		Train:       cfg,
		DriftPValue: 0.01,
		MinBanks:    40,
		Logger:      slog.New(slog.DiscardHandler),
	})
	if err != nil {
		log.Fatal(err)
	}

	// The regime changes: live the first half of the drifted banks through
	// the engine, then let the manager look for drift.
	ingest := func(banks []*cordial.BankFault) {
		for _, bf := range banks {
			for _, ev := range bf.Events {
				if err := engine.Ingest(ev); err != nil {
					log.Fatal(err)
				}
			}
		}
		if err := engine.Drain(30 * time.Second); err != nil {
			log.Fatal(err)
		}
	}
	ingest(regime1[:len(regime1)/2])
	mgr.Tick() // drift check → retrain from the journal → shadow starts
	st := mgr.Status()
	fmt.Printf("\nafter the regime change: drift p=%.2g, state=%s, candidate=v%d\n",
		st.LastDriftP, st.State, st.CandidateVersion)
	if st.State != "shadowing" {
		log.Fatalf("drift was not caught (lastError=%q)", st.LastError)
	}

	// Fresh drifted banks create their sessions while the shadow is live,
	// so each gets a candidate twin and the shadow scores real traffic.
	ingest(regime1[len(regime1)/2:])
	mgr.Tick() // judge: promote only if the candidate's ICR holds up
	st = mgr.Status()
	fmt.Printf("verdict: active=v%d (promotions=%d rollbacks=%d)\n",
		st.ActiveVersion, st.Promotions, st.Rollbacks)
	for _, meta := range reg.Versions() {
		fmt.Printf("  v%d  trigger=%-6s trainedOn=%d banks, mix=%v\n",
			meta.Version, meta.Trigger, meta.Model.BankCount, meta.Model.ClassMix)
	}

	// Sanity: the promoted pipeline classifies current-regime banks.
	pipe, err := reg.Pipeline(st.ActiveVersion)
	if err != nil {
		log.Fatal(err)
	}
	correct, total := 0, 0
	for _, bf := range regime1[len(regime1)-40:] {
		got, err := pipe.ClassifyPattern(bf.Events)
		if err != nil {
			continue
		}
		total++
		if got == bf.Class() {
			correct++
		}
	}
	fmt.Printf("active model accuracy on the last 40 drifted banks: %d/%d\n",
		correct, total)
	if err := engine.Close(); err != nil {
		log.Fatal(err)
	}
}
