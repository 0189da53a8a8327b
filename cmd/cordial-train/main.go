// Command cordial-train fits a Cordial pipeline (pattern classifier +
// cross-row block predictor) from ground-truth labelled banks produced by
// cordial-gen, and saves the models.
//
// Usage:
//
//	cordial-train -truth truth.json -model rf -out models.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cordial/internal/core"
	"cordial/internal/faultsim"
	"cordial/internal/hbm"
	"cordial/internal/profiling"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cordial-train:", err)
		os.Exit(1)
	}
}

func parseModel(s string) (core.ModelKind, error) {
	switch strings.ToLower(s) {
	case "rf", "randomforest", "random-forest":
		return core.RandomForest, nil
	case "xgb", "xgboost":
		return core.XGBoost, nil
	case "lgbm", "lightgbm":
		return core.LightGBM, nil
	default:
		return 0, fmt.Errorf("unknown model %q (want rf, xgb or lgbm)", s)
	}
}

func run() error {
	var (
		truthPath = flag.String("truth", "truth.json", "ground-truth path from cordial-gen")
		model     = flag.String("model", "rf", "backend: rf, xgb or lgbm")
		out       = flag.String("out", "models.json", "output model path")
		trees     = flag.Int("trees", 80, "ensemble size / boosting rounds")
		budget    = flag.Int("uer-budget", 3, "UERs used for pattern classification")
		par       = flag.Int("parallelism", 0, "training/inference goroutines (0 = all cores)")
		errBits   = flag.Bool("errbits", false, "append error-bit (DQ/burst) features to the pattern vectors; serving must load this model to match")
		topology  = flag.String("topology", hbm.HBM2E.Name, "topology profile the ground truth was generated under: "+strings.Join(hbm.ProfileNames(), ", "))
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if _, err := hbm.ProfileByName(*topology); err != nil {
		return err
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "cordial-train:", perr)
		}
	}()

	kind, err := parseModel(*model)
	if err != nil {
		return err
	}

	truthFile, err := os.Open(*truthPath)
	if err != nil {
		return err
	}
	defer truthFile.Close()
	var banks []*faultsim.BankFault
	if err := json.NewDecoder(truthFile).Decode(&banks); err != nil {
		return fmt.Errorf("decoding ground truth: %w", err)
	}
	if len(banks) == 0 {
		return fmt.Errorf("ground truth %s contains no banks", *truthPath)
	}

	cfg := core.DefaultConfig(kind)
	cfg.Params.Trees = *trees
	cfg.Params.Parallelism = *par
	cfg.Pattern.UERBudget = *budget
	cfg.ErrBits = *errBits
	pipe, err := core.New(cfg)
	if err != nil {
		return err
	}
	if err := pipe.Fit(banks); err != nil {
		return err
	}
	// Fit leaves TrainedAt zero so fitting stays deterministic; the saved
	// artefact is where provenance belongs, so stamp it here.
	if meta := pipe.Meta(); meta != nil {
		meta.TrainedAt = time.Now().UTC()
	}

	outFile, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer outFile.Close()
	if err := pipe.SaveModels(outFile); err != nil {
		return err
	}
	if err := outFile.Close(); err != nil {
		return err
	}

	fmt.Printf("trained %s on %d banks (block threshold %.3f) -> %s\n",
		kind, len(banks), pipe.Config().Threshold, *out)
	if meta := pipe.Meta(); meta != nil {
		fmt.Printf("meta: trainedAt=%s events=%d classMix=%v\n",
			meta.TrainedAt.Format(time.RFC3339), meta.EventCount, meta.ClassMix)
	}
	return nil
}
