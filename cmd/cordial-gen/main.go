// Command cordial-gen synthesises a fleet-scale HBM error log with ground
// truth, standing in for the proprietary BMC/MCE dataset of the paper.
//
// Usage:
//
//	cordial-gen -seed 1 -uer-banks 300 -benign-banks 2200 \
//	    -log fleet.mcelog -truth truth.json
//
// The log is written as CBF2 wire frames (-format wire, the default): at
// once an input for cordial-study and cordial-predict and a valid request
// body for POST /v1/events.bin on cordial-serve and cordial-router. With
// -format jsonl it is JSON Lines, the POST /v1/events body. The ground
// truth (per-bank pattern and UER rows) is written as JSON for
// cordial-train and offline analysis.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"

	"cordial/internal/faultsim"
	"cordial/internal/hbm"
	"cordial/internal/trace"
)

func main() {
	if err := run(); err != nil {
		slog.New(slog.NewTextHandler(os.Stderr, nil)).Error("cordial-gen failed", "err", err)
		os.Exit(1)
	}
}

// parseWeights turns "single=15,double=5,scattered=70" into a pattern
// sampling distribution. Patterns left out get weight 0.
func parseWeights(s string) (faultsim.PatternWeights, error) {
	names := map[string]faultsim.Pattern{
		"single":    faultsim.PatternSingleRow,
		"double":    faultsim.PatternDoubleRow,
		"half":      faultsim.PatternHalfTotalRow,
		"scattered": faultsim.PatternScattered,
		"wholecol":  faultsim.PatternWholeColumn,
	}
	w := make(faultsim.PatternWeights)
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("bad weight %q (want name=value)", pair)
		}
		p, ok := names[strings.ToLower(strings.TrimSpace(name))]
		if !ok {
			return nil, fmt.Errorf("unknown pattern %q (want single, double, half, scattered or wholecol)", name)
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || f < 0 {
			return nil, fmt.Errorf("bad weight value %q for %s", val, name)
		}
		w[p] = f
	}
	return w, nil
}

func run() error {
	var (
		seed        = flag.Uint64("seed", 1, "deterministic generation seed")
		uerBanks    = flag.Int("uer-banks", 300, "banks given a UER failure pattern")
		benignBanks = flag.Int("benign-banks", 2200, "banks with only CE/UEO noise")
		logPath     = flag.String("log", "fleet.mcelog", "output error-log path")
		format      = flag.String("format", "wire", "log format: wire or jsonl")
		truthPath   = flag.String("truth", "truth.json", "output ground-truth path (empty to skip)")
		weights     = flag.String("weights", "", "failure-pattern mix as name=weight pairs, e.g. single=15,double=5,scattered=70 (default: the paper's field distribution; use this to simulate a drifted regime)")
		topology    = flag.String("topology", hbm.HBM2E.Name, "topology profile: "+strings.Join(hbm.ProfileNames(), ", "))
	)
	flag.Parse()
	if *format != "wire" && *format != "jsonl" {
		return fmt.Errorf("unknown format %q (want wire or jsonl; wire replaces the former binary and stream formats)", *format)
	}

	prof, err := hbm.ProfileByName(*topology)
	if err != nil {
		return err
	}
	spec := trace.DefaultSpecFor(prof)
	spec.Seed = *seed
	spec.UERBanks = *uerBanks
	spec.BenignBanks = *benignBanks
	if *weights != "" {
		w, err := parseWeights(*weights)
		if err != nil {
			return err
		}
		spec.Weights = w
	}

	fleet, err := trace.Generate(spec)
	if err != nil {
		return err
	}

	logFile, err := os.Create(*logPath)
	if err != nil {
		return err
	}
	defer logFile.Close()
	if *format == "jsonl" {
		err = fleet.Log().WriteJSONL(logFile)
	} else {
		err = fleet.Log().WriteWire(prof, logFile)
	}
	if err != nil {
		return err
	}
	if err := logFile.Close(); err != nil {
		return err
	}

	if *truthPath != "" {
		truthFile, err := os.Create(*truthPath)
		if err != nil {
			return err
		}
		defer truthFile.Close()
		enc := json.NewEncoder(truthFile)
		if err := enc.Encode(fleet.Faults); err != nil {
			return err
		}
		if err := truthFile.Close(); err != nil {
			return err
		}
	}

	fmt.Printf("generated %d events (%d faulty banks, %d benign banks) -> %s\n",
		fleet.Log().Len(), len(fleet.Faults), len(fleet.BenignBankKeys), *logPath)
	return nil
}
