package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the self-check reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// selfcheckRuns is how many runs make one set: the driver takes
// medians over ten, the self-check over fewer to stay runnable by hand.
const selfcheckRuns = 5

// runSelfcheck runs two sets of the full command — every workload,
// selfcheckRuns seeds each — and prints, per workload and metric, both
// medians, how far the second is from the first and the bound; it
// fails when the second set is worse than the first by more than the
// bound, which is the comparison the driver makes between two builds
// of the same code. The ungated wire metrics are listed without a
// bound.
func runSelfcheck(root, bin string, seed int64, seconds int) error {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %v", err)
	}
	// sets[set][workload][metric] → one value per run.
	var sets [2]map[string]map[string][]float64
	for set := range sets {
		sets[set] = make(map[string]map[string][]float64)
		for run := 0; run < selfcheckRuns; run++ {
			for _, name := range workloadNames {
				res, err := runWorkload(bin, name, seed+int64(run), seconds, false, "")
				if err != nil {
					return fmt.Errorf("set %d, run %d, %s: %v", set+1, run+1, name, err)
				}
				if sets[set][name] == nil {
					sets[set][name] = make(map[string][]float64)
				}
				for _, ms := range []map[string]metric{res.Metrics, res.diag} {
					for metric, v := range ms {
						sets[set][name][metric] = append(sets[set][name][metric], v.Value)
					}
				}
				phase("set %d run %d %s done", set+1, run+1, name)
			}
		}
	}
	fmt.Printf("host: %d CPUs, %s, %s/%s; %d runs per set, -seconds %d, seeds %d..%d\n",
		runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, selfcheckRuns, seconds, seed, seed+selfcheckRuns-1)
	fmt.Printf("%-16s %-20s %14s %14s %8s %6s\n", "workload", "metric", "median 1", "median 2", "|Δ|/med", "bound")
	missed := 0
	for _, name := range workloadNames {
		gated := make(map[string]bool)
		for _, m := range spec.EndToEnd {
			gated[m.Name] = true
			a, b := median(sets[0][name][m.Name]), median(sets[1][name][m.Name])
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  MISS"
				missed++
			}
			fmt.Printf("%-16s %-20s %14.4f %14.4f %8.4f %6.2f%s\n", name, m.Name, a, b, math.Abs(b-a)/a, m.Bound, verdict)
		}
		// The wire metrics that are measured but not gated, for the record.
		var rest []string
		for n := range sets[0][name] {
			if !gated[n] {
				rest = append(rest, n)
			}
		}
		sort.Strings(rest)
		for _, n := range rest {
			a, b := median(sets[0][name][n]), median(sets[1][name][n])
			fmt.Printf("%-16s %-20s %14.4f %14.4f %8.4f %6s\n", name, n, a, b, math.Abs(b-a)/a, "-")
		}
	}
	if missed > 0 {
		return fmt.Errorf("%d workload/metric pairs moved by more than their bound between two sets of the same code", missed)
	}
	return nil
}
