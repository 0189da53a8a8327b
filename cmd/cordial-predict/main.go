// Command cordial-predict runs a trained Cordial pipeline over an MCE log:
// for every bank with enough UERs it classifies the failure pattern and
// prints the recommended mitigation — the rows to spare for aggregation
// patterns (from cross-row block prediction) or bank sparing for scattered
// patterns.
//
// Usage:
//
//	cordial-predict -models models.json -log fleet.mcelog
//
// The log may be CBF2 wire frames (what cordial-gen writes) or JSON Lines;
// the format is worked out from the file.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
)

func main() {
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if err := run(logger); err != nil {
		logger.Error("cordial-predict failed", "err", err)
		os.Exit(1)
	}
}

func run(logger *slog.Logger) error {
	var (
		modelsPath = flag.String("models", "models.json", "model path from cordial-train")
		logPath    = flag.String("log", "fleet.mcelog", "input error-log path")
		maxRows    = flag.Int("max-rows", 16, "max predicted rows to print per bank")
		topology   = flag.String("topology", hbm.HBM2E.Name, "topology profile the log was generated under: "+strings.Join(hbm.ProfileNames(), ", "))
	)
	flag.Parse()

	prof, err := hbm.ProfileByName(*topology)
	if err != nil {
		return err
	}

	modelsFile, err := os.Open(*modelsPath)
	if err != nil {
		return err
	}
	defer modelsFile.Close()
	// The backend kind is restored from the saved header.
	pipe, err := core.New(core.DefaultConfig(core.RandomForest))
	if err != nil {
		return err
	}
	if err := pipe.LoadModels(modelsFile); err != nil {
		return err
	}
	if meta := pipe.Meta(); meta != nil {
		logger.Info("model loaded", "trainedAt", meta.TrainedAt.Format(time.RFC3339),
			"banks", meta.BankCount, "events", meta.EventCount, "trees", meta.Params.Trees)
	}

	logFile, err := os.Open(*logPath)
	if err != nil {
		return err
	}
	defer logFile.Close()
	log, err := mcelog.ReadLog(prof, logFile)
	if err != nil {
		return err
	}
	log.Sort()

	geo := prof.Geometry
	budget := pipe.Config().Pattern.UERBudget
	groups := log.GroupByBank(prof)
	keys := make([]uint64, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	classified := 0
	for _, key := range keys {
		events := groups[key]
		// Find the last distinct UER row (the prediction anchor) and
		// count distinct UER rows.
		seen := make(map[int]bool)
		anchor, anchorIdx := -1, -1
		for i, e := range events {
			if e.Class == ecc.ClassUER && !seen[e.Addr.Row] {
				seen[e.Addr.Row] = true
				anchor, anchorIdx = e.Addr.Row, i
			}
		}
		if len(seen) < budget {
			continue
		}
		class, err := pipe.ClassifyPattern(events)
		if err != nil {
			continue
		}
		bank := prof.Layout.Unpack(key)
		classified++
		if !class.IsAggregation() {
			fmt.Printf("%s  pattern=%q  action=bank-spare\n", bank, class)
			continue
		}
		// Predict as of the anchor UER: only events at or before it are
		// observable (later events would push time-since-last negative, a
		// regime the models never trained on).
		now := events[anchorIdx].Time
		visible := events[:0:0]
		for _, e := range events {
			if !e.Time.After(now) {
				visible = append(visible, e)
			}
		}
		probs, err := pipe.PredictBlocks(visible, anchor, now)
		if err != nil {
			return err
		}
		rows := pipe.PredictRows(probs, anchor, geo)
		if len(rows) > *maxRows {
			rows = rows[:*maxRows]
		}
		sort.Ints(rows)
		fmt.Printf("%s  pattern=%q  action=row-spare  anchor=%d  rows=%v\n",
			bank, class, anchor, rows)
	}
	fmt.Printf("classified %d of %d error banks (threshold %.3f)\n",
		classified, len(keys), pipe.Config().Threshold)
	return nil
}
