//go:build !race

package hyperprov

import (
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// benchCeilings are the numbers of bench_test.go that are a function of
// the code alone — bytes allocated by one op in a fresh process, the size
// of a fixed state's snapshot or of a fixed log — each with the value it
// read when the ceiling was set. B/op may creep a tenth above it before a
// change has to own the difference (by moving the number here); the
// snapshot of a fixed state and the log of fixed transactions are a fixed
// number of bytes, and any growth is a format change, to be made on
// purpose: it is what a data directory holds. (The other
// gated benchmarks have their ceiling next to the code: EngineApplyTPCC
// in internal/engine's TestApplyAllocsPerTxn, IngestParse/borrowed in
// internal/parser's TestBatchAllocsWhatTheEngineKeeps, CheckpointEncode
// in internal/provstore's TestSaveSnapshotAllocsPerByteWritten,
// SubscriptionRespecTPCC in internal/subscribe's
// TestFoldAllocsIndependentOfHistory, InternCold in internal/core's
// TestInternBytesPerNode.)
var benchCeilings = []struct {
	// run is the -bench pattern of one child process: expression nodes
	// and row names are interned once per process, so what an op
	// allocates depends on what ran before it. Fig 8 is read after Fig 7
	// has named its rows, the cold starts alone, as in CI's bench-smoke.
	run, bench, metric string
	max                float64
}{
	{"Fig7_TPCC|Fig8_Synthetic|ProvstoreSnapshot/save", "BenchmarkFig8_Synthetic", "B/op", 25544680 * 1.1},
	{"Fig7_TPCC|Fig8_Synthetic|ProvstoreSnapshot/save", "BenchmarkProvstoreSnapshot/save", "snapshot_bytes", 318985},
	// 107 370 048 → 59 754 688: the initial rows' annotations are range
	// leaves, with no extension record, name string or chain link.
	{"ColdStart", "BenchmarkColdStart/csv_200k", "B/op", 59754688 * 1.1},
	{"ColdStart", "BenchmarkColdStart/snapshot_tpcc12k", "B/op", 111775976 * 1.1},
	// The bulk_scan shape in process: batches of 25 over 200 000 rows,
	// batched and one transaction at a time. 5 510 → 4 575 batched and
	// 5 178 → 4 243 each: a modification copies a target tuple only for
	// a row it creates; → 3 660 and 3 328: a row's values are its words.
	{"BatchScan/bulk", "BenchmarkBatchScan/bulk", "B_per_txn_batch", 3660 * 1.1},
	{"BatchScan/bulk", "BenchmarkBatchScan/bulk", "B_per_txn_each", 3328 * 1.1},
	// The log's bytes a transaction, pinned like the snapshot's: the
	// synthetic log and the TPC-C mix as the SQL front end parses it.
	// 347.5 → 130.2 and 1 051 → 276.8: a transaction that validates is
	// logged schema-relative.
	{"WALApply/(sync=never|tpcc_sql)", "BenchmarkWALApply/sync=never", "wal_B_per_txn", 130.2},
	{"WALApply/(sync=never|tpcc_sql)", "BenchmarkWALApply/tpcc_sql", "wal_B_per_txn", 276.8},
}

// TestBenchCeilings runs each group of benchmarks once (-benchtime 1x) in
// a child of the test binary and holds the metrics above to their
// ceilings.
func TestBenchCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("runs benchmarks in child processes (≈ 2 s)")
	}
	procs := regexp.MustCompile(`-\d+$`) // the GOMAXPROCS suffix of a benchmark's name
	outputs := map[string]map[string]float64{}
	for _, c := range benchCeilings {
		if outputs[c.run] == nil {
			out, err := exec.Command(os.Args[0], "-test.run=^$", "-test.bench="+c.run, "-test.benchtime=1x", "-test.benchmem").CombinedOutput()
			if err != nil {
				t.Fatalf("-bench %s: %v\n%s", c.run, err, out)
			}
			outputs[c.run] = map[string]float64{}
			for _, line := range strings.Split(string(out), "\n") {
				f := strings.Fields(line)
				if len(f) < 2 || !strings.HasPrefix(f[0], "Benchmark") {
					continue
				}
				for i := 2; i+1 < len(f); i += 2 { // name, iterations, then value-unit pairs
					if v, err := strconv.ParseFloat(f[i], 64); err == nil {
						outputs[c.run][procs.ReplaceAllString(f[0], "")+" "+f[i+1]] = v
					}
				}
			}
		}
		got, ran := outputs[c.run][c.bench+" "+c.metric]
		if !ran {
			t.Errorf("-bench %s reported no %s for %s", c.run, c.metric, c.bench)
		} else if got > c.max {
			t.Errorf("%s: %s = %.0f, ceiling %.0f", c.bench, c.metric, got, c.max)
		}
	}
}
