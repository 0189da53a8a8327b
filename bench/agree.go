package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runAgree is the benchmark's own acceptance test: two interleaved sets of n
// runs of this build, each run a fresh process as the driver starts it, run
// i of either set on seed o.seed+i. It prints, per workload and end-to-end
// metric, both medians, their difference, each set's spread between seeds
// (interquartile range over median) and the bound, and returns non-zero
// when a difference or a spread exceeds its bound. setup_s is exempt from
// the spread rule, as it is in the driver.
func runAgree(o options, name string, n int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	type key struct{ workload, metric string }
	var sets [2]map[key][]float64
	sets[0], sets[1] = make(map[key][]float64), make(map[key][]float64)
	for i := 0; i < n; i++ {
		for j := 0; j < 2; j++ {
			set := (i + j) % 2 // alternate which set goes first
			for _, w := range workloads {
				if name != "" && name != w.name {
					continue
				}
				out, err := exec.Command(exe,
					"--workload", w.name,
					"--seed", strconv.FormatUint(o.seed+uint64(i), 10),
					"--seconds", strconv.Itoa(o.seconds),
					"--scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
					"--trace", "0").Output()
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: agree: %s seed %d: %v\n", w.name, o.seed+uint64(i), err)
					return 1
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res struct {
					Correct bool `json:"correct"`
					Metrics map[string]struct {
						Value float64 `json:"value"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: agree: %s seed %d: bad result line (%v)\n", w.name, o.seed+uint64(i), err)
					return 1
				}
				for m, v := range res.Metrics {
					sets[set][key{w.name, m}] = append(sets[set][key{w.name, m}], v.Value)
				}
				fmt.Fprintf(os.Stderr, "agree: round %d set %c %s done\n", i+1, 'A'+set, w.name)
			}
		}
	}
	spread := func(v []float64) float64 {
		return (quantile(v, 0.75) - quantile(v, 0.25)) / quantile(v, 0.5)
	}
	code := 0
	fmt.Printf("%-13s %-17s %14s %14s %8s %9s %9s %7s\n", "workload", "metric", "median A", "median B", "diff", "spread A", "spread B", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0][key{w.name, d.Name}], sets[1][key{w.name, d.Name}]
			if len(a) == 0 {
				continue
			}
			ma, mb := quantile(a, 0.5), quantile(b, 0.5)
			diff := math.Abs(mb-ma) / ma
			verdict := ""
			if diff > d.Bound {
				verdict, code = "  DISAGREE", 1
			}
			if d.Name != "setup_s" && (spread(a) > d.Bound || spread(b) > d.Bound) {
				verdict, code = verdict+"  SPREAD", 1
			}
			fmt.Printf("%-13s %-17s %14.6g %14.6g %7.2f%% %8.2f%% %8.2f%% %6.0f%%%s\n",
				w.name, d.Name, ma, mb, 100*diff, 100*spread(a), 100*spread(b), 100*d.Bound, verdict)
		}
	}
	return code
}
