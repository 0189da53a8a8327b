// Command bench is the repository benchmark: four workloads, each measured
// end to end from wire bytes to sparing verdicts and checked against a
// single-threaded offline reference, plus a traced run that times every
// layer from outside. See README.md in this directory; BENCHMARK.json at
// the repository root is the driver-facing description of the same thing.
//
//	bash bench/run.sh --workload fleet_mem --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// options are one run's settings. Everything random derives from seed.
type options struct {
	seed    uint64
	seconds int
	scale   float64 // input-size multiplier; 1 except in the smoke test
	outDir  string  // scratch for journals and trace files
}

// result is what one run of one workload reports.
type result struct {
	attempted int
	failed    int
	correct   bool
	metrics   map[string]float64
	notes     []string
}

// workload is one set of inputs the benchmark runs. run measures the
// end-to-end metrics untraced; traced produces the per-layer ledger.
type workload struct {
	name   string
	why    string
	run    func(options) (*result, error)
	traced func(options) (*result, error)
}

var workloads = []workload{
	servingWorkload(servingSpec{name: "fleet_mem", gen: fleetEvents, pacedRate: 100_000},
		"production shape: 64k banks, ~7 events each, nearly all CEs on cold sessions, in-memory engine; decode, routing, the session map and features.Observe carry it, the working set exceeds cache"),
	servingWorkload(servingSpec{name: "fleet_durable", gen: fleetEvents, durable: true, pacedRate: 50_000},
		"the fleet_mem events journaled before ack (SyncAlways, group commit): wal.AppendBatch and fsync wait are added, so a WAL change must move this and leave fleet_mem alone"),
	servingWorkload(servingSpec{name: "hot_banks", gen: hotBankEvents, pacedRate: 15_000},
		"1024 aggregation banks with a UER every 10th event: a tenth of events run block prediction and emit an action, so features, mltree inference and action emit dominate, ingest is noise"),
	{name: "train_eval", run: runTrainEval, traced: tracedTrainEval,
		why: "offline retrain loop: Pipeline.Fit (default random forest) then pattern and prediction evaluation on held-out banks; bulk mltree training and inference, no stream or wal code, quality pinned"},
}

func servingWorkload(s servingSpec, why string) workload {
	return workload{name: s.name, why: why, run: s.run, traced: s.traced}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all)")
		seed    = flag.Uint64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", 10, "measured window per workload")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer ledger in place of the end-to-end metrics")
		scale   = flag.Float64("scale", 1, "input-size multiplier")
		agree   = flag.Int("agree", 0, "run two interleaved sets of N runs and compare their medians with the bounds")
	)
	flag.Parse()
	// The load generator, the engine's shards and the action consumer share
	// two processors on every box, so numbers from boxes of different width
	// stay comparable.
	runtime.GOMAXPROCS(2)
	o := options{seed: *seed, seconds: *seconds, scale: *scale, outDir: "bench/out"}
	if *agree > 0 {
		os.Exit(runAgree(o, *name, *agree))
	}
	fmt.Printf("# %s GOMAXPROCS=%d cpus=%d cpu=%q\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
	ok := true
	for _, w := range workloads {
		if *name != "" && *name != w.name {
			continue
		}
		res, err := runWorkload(w, o, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		ok = ok && res.correct
		printResult(w, res, *trace == 1)
	}
	if !ok {
		os.Exit(1)
	}
}

func runWorkload(w workload, o options, traced bool) (*result, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	run := w.run
	if traced {
		run = w.traced
	}
	res, err := run(o)
	if err != nil {
		return nil, err
	}
	res.correct = res.failed == 0
	return res, nil
}

// printResult prints every metric by name with unit, direction and bound,
// then the one-line JSON object the driver reads.
func printResult(w workload, res *result, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Printf("# workload %s: %s\n", w.name, w.why)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v := res.metrics[d.Name]
		out[d.Name] = value{v, d.Unit}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%", d.Bound*100)
		}
		fmt.Printf("%-12s %-36s %16.6f %-6s %s is better%s\n", w.name, d.Name, v, d.Unit, d.Better, bound)
	}
	for _, n := range res.notes {
		fmt.Printf("# note: %s\n", n)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, out})
	if err != nil {
		panic(err) // a map of floats and strings always marshals
	}
	fmt.Println(string(line))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// fsType names the filesystem under dir, which decides what an fsync costs.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("%#x", uint32(st.Type))
}
