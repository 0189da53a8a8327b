// Empiricalstudy: reproduce the paper's §III analyses on a fresh simulated
// fleet — the sudden-UER ratios per micro-level (Table I), the dataset
// summary (Table II), the bank failure-pattern distribution (Figure 3(b)),
// and the row-distance locality chi-square curve that motivates the 128-row
// prediction window (Figure 4). The same functions work on a real MCE log
// ingested with the mcelog codecs.
package main

import (
	"fmt"
	"log"

	"cordial"
)

func main() {
	spec := cordial.DefaultFleetSpec()
	spec.UERBanks = 400
	spec.BenignBanks = 2500
	spec.Seed = 2025
	fleet, err := cordial.Simulate(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet: %d events, %d faulty banks, %d benign banks\n\n",
		fleet.Log().Len(), len(fleet.Faults), len(fleet.BenignBankKeys))

	// Table I — how predictable are UERs at each micro-level?
	fmt.Println("Table I — in-row predictable ratio of UERs")
	fmt.Printf("%-8s %12s %16s %18s\n", "level", "sudden UER", "non-sudden UER", "predictable ratio")
	for _, r := range cordial.SuddenByLevel(fleet.Log()) {
		fmt.Printf("%-8s %12d %16d %17.2f%%\n",
			r.Level, r.Sudden, r.NonSudden, r.PredictableRatio()*100)
	}
	fmt.Println("\n→ at row level nearly every UER is sudden: in-row prediction cannot work.")

	// Table II — dataset summary.
	fmt.Println("\nTable II — entities with each error class")
	fmt.Printf("%-8s %9s %9s %9s %9s\n", "level", "with CE", "with UEO", "with UER", "total")
	for _, r := range cordial.SummaryByLevel(fleet.Log()) {
		fmt.Printf("%-8s %9d %9d %9d %9d\n", r.Level, r.WithCE, r.WithUEO, r.WithUER, r.Total)
	}

	// Figure 3(b) — pattern mix.
	fmt.Println("\nFigure 3(b) — bank failure pattern distribution")
	agg := 0.0
	for _, s := range cordial.PatternDistribution(fleet.Faults) {
		fmt.Printf("%-28s %5.1f%%  (%d banks)\n", s.Pattern, s.Share*100, s.Count)
	}
	for _, s := range cordial.PatternDistribution(fleet.Faults) {
		if s.Pattern.String() == "single-row clustering" || s.Pattern.String() == "double-row clustering" {
			agg += s.Share
		}
	}
	fmt.Printf("→ aggregation patterns dominate (%.1f%% combined; paper: 78.1%%): cross-row prediction is viable.\n", agg*100)

	// Figure 4 — locality of cross-row UERs.
	fmt.Println("\nFigure 4 — chi-square significance of row-distance thresholds")
	points, err := cordial.LocalityChiSquare(fleet.Log(), cordial.DefaultGeometry.RowsPerBank, cordial.DefaultThresholds())
	if err != nil {
		log.Fatal(err)
	}
	peak, peakChi := 0, 0.0
	for _, p := range points {
		bar := int(p.ChiSquare / 2000)
		if bar > 60 {
			bar = 60
		}
		fmt.Printf("%5d rows  chi2=%9.0f  ", p.Threshold, p.ChiSquare)
		for i := 0; i < bar; i++ {
			fmt.Print("#")
		}
		fmt.Println()
		if p.ChiSquare > peakChi {
			peak, peakChi = p.Threshold, p.ChiSquare
		}
	}
	fmt.Printf("→ strongest significance at %d rows (paper: 128): predict within ±%d of the last UER.\n",
		peak, peak/2)
}
