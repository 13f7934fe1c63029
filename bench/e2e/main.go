// Command e2e is the repository's benchmark: it builds cmd/hyperprov,
// runs seeded fixed-work workloads against `hyperprov serve`
// subprocesses over loopback HTTP, checks every output against an
// in-process oracle, and prints each metric by name with its unit.
// README.md has the workloads, the metric glossary and the layer →
// metric table; BENCHMARK.json at the repository root is the contract
// the driver checks.
//
//	go run -C bench/e2e . -seed 1                       all four workloads
//	go run -C bench/e2e . -workload oltp_point -trace 1 one workload, per-layer numbers
//	go run -C bench/e2e . -selfcheck                    two full sets, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// result is the last line of standard output: the driver's contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// diag are the wire metrics that are measured but not gated
	// (end-to-end runs); printed, never part of the contract line.
	diag map[string]metric
}

func main() {
	workload := flag.String("workload", "", "run one workload ("+fmt.Sprint(workloadNames)+"); default all four, one after another")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same op lists")
	seconds := flag.Int("seconds", 12, "size of the fixed op lists, in seconds of timed region on the reference box")
	trace := flag.Int("trace", 0, "1 adds the in-process traced pass and prints the per-layer metrics instead of the end-to-end ones")
	traceOut := flag.String("trace-out", "", "span file the traced pass writes (default .bench_build/e2e/spans-<workload>.json)")
	selfcheck := flag.Bool("selfcheck", false, "run two sets of the full command and compare their medians against the bounds in BENCHMARK.json")
	flag.BoolVar(&verbose, "v", false, "print phase timings to standard error")
	flag.Parse()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllProcs()
		os.Exit(130)
	}()

	if err := run(*workload, *seed, *seconds, *trace, *traceOut, *selfcheck); err != nil {
		killAllProcs()
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int, traceOut string, selfcheck bool) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	bin, err := buildServer(root)
	if err != nil {
		return err
	}
	if selfcheck {
		return runSelfcheck(root, bin, seed, seconds)
	}
	names := workloadNames
	if workload != "" {
		names = []string{workload}
	}
	for _, name := range names {
		res, err := runWorkload(bin, name, seed, seconds, trace == 1, traceOut)
		if err != nil {
			// A failed check prints the failure and no metrics.
			return fmt.Errorf("%s: %v", name, err)
		}
		printMetrics(name, res.diag)
		printMetrics(name, res.Metrics)
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// runWorkload runs one workload and returns its contract result: the
// end-to-end metrics, or with traced the per-layer ones.
func runWorkload(bin, name string, seed int64, seconds int, traced bool, traceOut string) (*result, error) {
	// The contract gives a run 180 s; a hung server must not hang the
	// benchmark past it.
	watchdog := time.AfterFunc(runDeadline, func() {
		killAllProcs()
		fmt.Fprintf(os.Stderr, "e2e: %s: still running after %v; giving up\n", name, runDeadline)
		os.Exit(1)
	})
	defer watchdog.Stop()
	p, err := buildPlan(name, seed, float64(seconds), 1)
	if err != nil {
		return nil, err
	}
	if traced {
		return runTraced(bin, p, traceOut)
	}
	res, err := runWire(bin, p, nil, fullRun)
	if err != nil {
		return nil, err
	}
	diag := res.demoted(p)
	for n, m := range diag {
		if m.Value == 0 { // not a metric of this workload
			delete(diag, n)
		}
	}
	// The reference kernel is printed beside the results so that a reader
	// comparing two result sets can see how much the host itself moved.
	diag["host.ref_kernel_ms"] = metric{(res.refBeforeMs + res.refAfterMs) / 2, "ms",
		fmt.Sprintf("before the timed region %.1f, after %.1f", res.refBeforeMs, res.refAfterMs)}
	return &result{Correct: true, Attempted: res.timed.attempted, Failed: res.timed.failed, Metrics: res.endToEnd(), diag: diag}, nil
}

const runDeadline = 170 * time.Second

func printMetrics(workload string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-16s %-32s %16.4f %-6s %s\n", workload, n, ms[n].Value, ms[n].Unit, ms[n].note)
	}
}
