// Command cordial-chaos is the thin real-binary smoke: it runs the
// checked-in chaos scenario (internal/chaos/scenarios.go) against the real
// serving daemons — a control plane, serve nodes and a router, loaded with a
// weighted-template workload as wire frames — injects what needs a real
// process (a SIGKILL of a serve node, poisoned events at the front door) on
// a timeline, and scores the run against the scenario's SLOs (recovery time,
// availability, zero verdict loss, zero poison accepted), emitting JSON and
// HTML reports. Disk faults, partitions and membership churn are injected in
// process, by internal/cluster's fleet simulation.
//
// Usage:
//
//	cordial-chaos run NAME [--seed N] [--bin DIR] [--work DIR] [--json PATH] [--html PATH]
//	cordial-chaos plan NAME [--seed N]
//
// run executes a scenario end to end; its exit status is the SLO verdict.
// plan prints the deterministic run plan (event counts, digest, resolved
// chaos schedule) without starting any process — two invocations with the
// same seed must print the same digest.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

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
	var names []string
	for _, sc := range chaos.Scenarios() {
		names = append(names, sc.Name)
	}
	fmt.Fprintf(os.Stderr, `cordial-chaos — scenario-driven stress and failure testing

  cordial-chaos run NAME [flags]    execute a scenario, exit 0 iff SLOs pass
  cordial-chaos plan NAME [flags]   print the deterministic run plan

scenarios: %s

run/plan flags:
  --seed N     override the scenario seed
  --bin DIR    prebuilt daemon binaries (default: go build from the module)
  --work DIR   scratch directory (default: temp dir, removed on pass)
  --json PATH  write the JSON report here (overrides scenario report.json)
  --html PATH  write the HTML report here (overrides scenario report.html)
`, strings.Join(names, ", "))
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
	// Accept both "run ci-smoke --seed 42" and "run --seed 42 ci-smoke".
	var name string
	rest := args
	if len(rest) > 0 && len(rest[0]) > 0 && rest[0][0] != '-' {
		name, rest = rest[0], rest[1:]
	}
	if err := fs.Parse(rest); err != nil {
		return "", err
	}
	if name == "" && fs.NArg() > 0 {
		name = fs.Arg(0)
	}
	if name == "" {
		return "", fmt.Errorf("scenario name required")
	}
	return name, nil
}

func cmdRun(args []string) int {
	fs, seed, bin, work, jsonOut, htmlOut := parseRunFlags("run", args)
	name, err := splitScenarioArg(fs, args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cordial-chaos run: %v\n", err)
		return 2
	}
	sc, err := chaos.ScenarioByName(name)
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

func cmdPlan(args []string) int {
	fs, seed, _, _, _, _ := parseRunFlags("plan", args)
	name, err := splitScenarioArg(fs, args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cordial-chaos plan: %v\n", err)
		return 2
	}
	sc, err := chaos.ScenarioByName(name)
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
