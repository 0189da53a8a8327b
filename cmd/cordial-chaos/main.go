// Command cordial-chaos is the fleet-scale stress harness: it runs YAML
// chaos scenarios against the real serving daemons — generating
// weighted-template workloads, injecting kills, disk faults, clock skew,
// poisoned events and router partitions on a timeline — and scores the
// run against the scenario's SLOs, emitting JSON and HTML reports.
//
// Usage:
//
//	cordial-chaos run scenario.yaml [--seed N] [--bin DIR] [--work DIR] [--json PATH] [--html PATH]
//	cordial-chaos validate scenario.yaml...
//	cordial-chaos plan scenario.yaml [--seed N]
//
// run executes a scenario end to end; its exit status is the SLO verdict.
// validate parses and checks scenarios without running anything, for CI.
// plan prints the deterministic run plan (event counts, digest, resolved
// chaos schedule) without starting any process — two invocations with the
// same seed must print the same digest.
package main

import (
	"flag"
	"fmt"
	"os"

	"cordial/internal/chaos"
	"cordial/internal/hbm"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "run":
		os.Exit(cmdRun(os.Args[2:]))
	case "validate":
		os.Exit(cmdValidate(os.Args[2:]))
	case "plan":
		os.Exit(cmdPlan(os.Args[2:]))
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "cordial-chaos: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `cordial-chaos — scenario-driven stress and failure testing

  cordial-chaos run scenario.yaml [flags]    execute a scenario, exit 0 iff SLOs pass
  cordial-chaos validate scenario.yaml...    parse + validate scenarios (no processes)
  cordial-chaos plan scenario.yaml [flags]   print the deterministic run plan

run/plan flags:
  --seed N     override the scenario seed
  --bin DIR    prebuilt daemon binaries (default: go build from the module)
  --work DIR   scratch directory (default: temp dir, removed on pass)
  --json PATH  write the JSON report here (overrides scenario report.json)
  --html PATH  write the HTML report here (overrides scenario report.html)
`)
}

func parseRunFlags(name string, args []string) (*flag.FlagSet, *uint64, *string, *string, *string, *string) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	seed := fs.Uint64("seed", 0, "override the scenario seed")
	bin := fs.String("bin", "", "directory with prebuilt daemon binaries")
	work := fs.String("work", "", "scratch directory")
	jsonOut := fs.String("json", "", "JSON report path")
	htmlOut := fs.String("html", "", "HTML report path")
	return fs, seed, bin, work, jsonOut, htmlOut
}

func splitScenarioArg(fs *flag.FlagSet, args []string) (string, error) {
	// Accept both "run scenario.yaml --seed 42" and "run --seed 42 scenario.yaml".
	var path string
	rest := args
	if len(rest) > 0 && len(rest[0]) > 0 && rest[0][0] != '-' {
		path, rest = rest[0], rest[1:]
	}
	if err := fs.Parse(rest); err != nil {
		return "", err
	}
	if path == "" && fs.NArg() > 0 {
		path = fs.Arg(0)
	}
	if path == "" {
		return "", fmt.Errorf("scenario file required")
	}
	return path, nil
}

func cmdRun(args []string) int {
	fs, seed, bin, work, jsonOut, htmlOut := parseRunFlags("run", args)
	path, err := splitScenarioArg(fs, args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cordial-chaos run: %v\n", err)
		return 2
	}
	sc, err := chaos.LoadScenario(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cordial-chaos: %v\n", err)
		return 2
	}
	if *jsonOut != "" {
		sc.Report.JSON = *jsonOut
	}
	if *htmlOut != "" {
		sc.Report.HTML = *htmlOut
	}

	rep, err := chaos.Run(sc, chaos.RunOptions{
		BinDir: *bin, WorkDir: *work, Seed: *seed, Log: os.Stderr,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cordial-chaos: %v\n", err)
		if rep != nil {
			printSummary(rep)
		}
		return 1
	}
	printSummary(rep)
	if !rep.Pass {
		return 1
	}
	return 0
}

func printSummary(rep *chaos.Report) {
	verdict := "PASS"
	if !rep.Pass {
		verdict = "FAIL"
	}
	fmt.Printf("%s: %s (seed %d, digest %s, %s)\n",
		verdict, rep.Scenario, rep.Seed, rep.PlanDigest, rep.RunDuration())
	for _, c := range rep.SLOs {
		mark := "ok  "
		if !c.Pass {
			mark = "FAIL"
		}
		fmt.Printf("  [%s] %-22s target %-14s observed %s\n", mark, c.Name, c.Target, c.Observed)
	}
}

func cmdValidate(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "cordial-chaos validate: at least one scenario file required")
		return 2
	}
	bad := 0
	for _, path := range args {
		sc, err := chaos.LoadScenario(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "INVALID %s: %v\n", path, err)
			bad++
			continue
		}
		fmt.Printf("ok %s: %q (%d nodes, %d banks, %d chaos actions)\n",
			path, sc.Name, sc.Fleet.Nodes, sc.FleetGen.TotalBanks, len(sc.Chaos))
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func cmdPlan(args []string) int {
	fs, seed, _, _, _, _ := parseRunFlags("plan", args)
	path, err := splitScenarioArg(fs, args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cordial-chaos plan: %v\n", err)
		return 2
	}
	sc, err := chaos.LoadScenario(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cordial-chaos: %v\n", err)
		return 2
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	plan, err := chaos.BuildPlan(sc, hbm.HBM2E)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cordial-chaos: %v\n", err)
		return 1
	}
	fmt.Printf("scenario %s seed %d\nplan digest %s\nbanks %d (faulty %d), events %d\n",
		sc.Name, sc.Seed, plan.Digest, plan.Fleet.Banks, plan.Fleet.Faulty, len(plan.Fleet.Events))
	for _, a := range plan.Chaos {
		fmt.Printf("  t+%-8v %-18s %s\n", a.At, a.Action, a.Target)
	}
	return 0
}
