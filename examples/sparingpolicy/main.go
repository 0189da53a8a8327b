// Sparingpolicy: study how the spare-row budget shapes isolation coverage
// under three mitigation policies — the in-row paradigm, the neighbor-rows
// heuristic, and Cordial — answering the operator's question "how many spare
// rows per bank do I need for cross-row prediction to pay off?"
package main

import (
	"fmt"
	"log"

	"cordial"
	"cordial/internal/core"
	"cordial/internal/sparing"
)

func main() {
	spec := cordial.DefaultFleetSpec()
	spec.UERBanks = 250
	spec.BenignBanks = 600
	spec.Seed = 11
	fleet, err := cordial.Simulate(spec)
	if err != nil {
		log.Fatal(err)
	}
	train, test, err := cordial.Split(fleet.Faults, 3, 0.7)
	if err != nil {
		log.Fatal(err)
	}
	pipe, err := cordial.Train(cordial.RandomForest, train)
	if err != nil {
		log.Fatal(err)
	}
	geo := cordial.DefaultGeometry
	block := pipe.Config().Block

	strategies := []cordial.Strategy{
		cordial.InRowBaseline(geo),
		cordial.NeighborRowsBaseline(geo, block),
		cordial.NewStrategy(pipe, geo),
	}

	fmt.Println("isolation coverage rate (ICR) by spare-row budget per bank")
	fmt.Printf("%-16s", "rows/bank:")
	budgets := []int{4, 8, 16, 32, 64, 128}
	for _, b := range budgets {
		fmt.Printf("%8d", b)
	}
	fmt.Println()

	for _, s := range strategies {
		fmt.Printf("%-16s", s.Name())
		for _, rows := range budgets {
			budget := sparing.Budget{RowSparesPerBank: rows, BankSparesPerChannel: 2}
			res, err := core.EvaluatePrediction(s, test, block, budget)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%7.1f%%", res.ICR.Rate()*100)
		}
		fmt.Println()
	}

	fmt.Println("\nresource usage at 64 rows/bank:")
	for _, s := range strategies {
		budget := sparing.Budget{RowSparesPerBank: 64, BankSparesPerChannel: 2}
		res, err := core.EvaluatePrediction(s, test, block, budget)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-16s rows spared: %5d   banks spared: %3d\n",
			s.Name(), res.Usage.RowSpares, res.Usage.BankSpares)
	}
	fmt.Println("\n→ Cordial reaches higher coverage at every budget because it spends")
	fmt.Println("  spares on predicted blocks instead of fixed neighbourhoods, and")
	fmt.Println("  replaces hopelessly scattered banks outright.")
}
