// Fleetmonitor: drive a trained Cordial pipeline in streaming mode the way
// the production service (cmd/cordial-serve) does — error events from the
// whole fleet flow through the sharded StreamEngine, per-bank sessions
// accumulate context concurrently, and mitigation actions (row sparing,
// bank sparing) are emitted the moment the pipeline has enough evidence.
package main

import (
	"fmt"
	"log"
	"sort"

	"cordial"
)

func main() {
	// Train on one simulated month...
	trainSpec := cordial.DefaultFleetSpec()
	trainSpec.UERBanks = 200
	trainSpec.BenignBanks = 500
	trainSpec.Seed = 1
	trainFleet, err := cordial.Simulate(trainSpec)
	if err != nil {
		log.Fatal(err)
	}
	pipe, err := cordial.Train(cordial.RandomForest, trainFleet.Faults)
	if err != nil {
		log.Fatal(err)
	}

	// ...then monitor a fresh month, live.
	liveSpec := trainSpec
	liveSpec.UERBanks = 40
	liveSpec.BenignBanks = 100
	liveSpec.Seed = 2
	live, err := cordial.Simulate(liveSpec)
	if err != nil {
		log.Fatal(err)
	}

	engine, err := cordial.NewStreamEngine(cordial.DefaultStreamConfig(pipe))
	if err != nil {
		log.Fatal(err)
	}

	// Consume actions as the engine emits them, exactly as an isolation
	// controller would.
	var bankSpares, rowSpares, actionCount int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range engine.Actions() {
			actionCount++
			switch {
			case a.Kind == cordial.ActionBankSpare:
				bankSpares++
				fmt.Printf("%s  bank %s: %s -> BANK SPARE\n",
					a.Time.Format("Jan 02 15:04"), a.Bank, a.Class)
			default:
				rowSpares += len(a.Rows)
				if actionCount <= 20 {
					rows := a.Rows
					if len(rows) > 8 {
						rows = rows[:8]
					}
					fmt.Printf("%s  bank %s: %s -> row-spare %v (+%d more)\n",
						a.Time.Format("Jan 02 15:04"), a.Bank, a.Class,
						rows, len(a.Rows)-len(rows))
				}
			}
		}
	}()

	fmt.Println("streaming fleet events through the Cordial engine...")
	if _, err := engine.IngestLog(live.Log()); err != nil {
		log.Fatal(err)
	}
	// Close drains every in-flight event through its session, then closes
	// the action channel.
	if err := engine.Close(); err != nil {
		log.Fatal(err)
	}
	<-done

	stats := engine.Stats()
	fmt.Printf("\nmonitored %d events across %d sessions on %d shards (%.0f events/sec)\n",
		stats.Processed, stats.SessionsLive, stats.Shards, stats.IngestRate)
	fmt.Printf("actions: %d (bank spares: %d, rows isolated: %d); session p99 latency %v\n",
		actionCount, bankSpares, rowSpares, stats.Process.P99)

	// How well did the live decisions anticipate the month's failures?
	res, err := cordial.Evaluate(pipe, live.Faults)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("isolation coverage of the live month: %.1f%% of UER rows isolated before failing\n",
		res.ICR.Rate()*100)

	// Busiest sessions by event volume, for the on-call engineer — read
	// straight from the engine's session snapshots.
	type bankLoad struct {
		stats cordial.SessionStats
		n     int
	}
	var loads []bankLoad
	for _, events := range live.Log().GroupByBank() {
		if st, ok := engine.Session(cordial.BankOf(events[0].Addr)); ok {
			loads = append(loads, bankLoad{st, st.Events})
		}
	}
	sort.Slice(loads, func(i, j int) bool { return loads[i].n > loads[j].n })
	fmt.Println("\nnoisiest banks this month:")
	for i := 0; i < 5 && i < len(loads); i++ {
		st := loads[i].stats
		status := "watching"
		switch {
		case st.BankSpared:
			status = "bank-spared"
		case st.RowsIsolated > 0:
			status = fmt.Sprintf("%d rows isolated", st.RowsIsolated)
		}
		fmt.Printf("  %3d events  %s  (%s)\n", st.Events, st.Bank, status)
	}
}
