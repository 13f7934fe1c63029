//go:build !race

package hyperprov

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/provstore"
	"hyperprov/internal/workload"
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
	// 318 985 → 170 012: snapshot version 3 writes a child as its
	// distance back, a variable prefix<i> by its index (one byte for the
	// index after the last) and a repeated root as a row tag.
	{"Fig7_TPCC|Fig8_Synthetic|ProvstoreSnapshot/save", "BenchmarkProvstoreSnapshot/save", "snapshot_bytes", 170012},
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

// TestColdStartResident holds a store loaded from its snapshot to what
// the same store booted from CSV keeps resident, and the snapshot of
// BenchmarkColdStart/csv_200k's 200 000 rows to its size. The intern
// table is process-global, so each boot runs in a child of the test
// binary (the arguments after -test.run name the source and the
// directory holding it) and reports the live heap it added a row and
// its time. Version 2 snapshots loaded every leaf as a named variable:
// 231.1 B a row in 96 ms against 191.3 booted from CSV, from a
// 3 412 918-byte file; version 3 mints a run of leaves as range leaves,
// as the CSV loader does: 192.6 B a row in 70 ms, from 1 724 032 bytes.
func TestColdStartResident(t *testing.T) {
	if args := flag.Args(); len(args) == 2 {
		coldStartChild(t, args[0], args[1])
		return
	}
	if testing.Short() {
		t.Skip("boots 200 000 rows in two child processes (≈ 2 s)")
	}
	initial, _, err := workload.Generate(workload.Config{Tuples: 200000, Pool: 1000, Updates: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var file bytes.Buffer
	if err := db.WriteCSV(&file, initial.Instance("R")); err != nil {
		t.Fatal(err)
	}
	e, err := engine.Load(engine.ModeNormalForm, initial.Schema(), func(emit func(db.RowBatch) error) error {
		return db.CSVRows(initial.Schema().Relation("R"), file.Bytes(), emit)
	})
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := provstore.SaveSnapshot(&snap, e); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"csv": file.Bytes(), "snapshot": snap.Bytes()} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	perRow := map[string]float64{}
	for _, source := range []string{"csv", "snapshot"} {
		out, err := exec.Command(os.Args[0], "-test.run=^TestColdStartResident$", "-test.v", source, dir).CombinedOutput()
		if err != nil {
			t.Fatalf("%s boot: %v\n%s", source, err, out)
		}
		i := bytes.Index(out, []byte("resident "))
		if i < 0 {
			t.Fatalf("%s boot printed no reading:\n%s", source, out)
		}
		line, _, _ := bytes.Cut(out[i:], []byte("\n"))
		var b, ms float64
		if _, err := fmt.Sscanf(string(line), "resident %g B a row, %g ms", &b, &ms); err != nil {
			t.Fatalf("%s boot: %v\n%s", source, err, out)
		}
		perRow[source] = b
		t.Logf("booted from %s: %s", source, line)
	}
	t.Logf("snapshot: %d bytes", snap.Len())
	if snap.Len() > 1_800_000 {
		t.Errorf("the 200 000-row snapshot takes %d bytes, want at most 1 800 000", snap.Len())
	}
	if perRow["snapshot"] > perRow["csv"]*1.05 {
		t.Errorf("loaded from its snapshot the store holds %.1f B a row, booted from CSV %.1f: want within 5 %%", perRow["snapshot"], perRow["csv"])
	}
}

// coldStartChild boots the store from the file of the source in dir and
// prints the live heap the boot added a row and the time it took.
func coldStartChild(t *testing.T, source, dir string) {
	data, err := os.ReadFile(filepath.Join(dir, source))
	if err != nil {
		t.Fatal(err)
	}
	schema := workload.Schema()
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before, start := live(), time.Now()
	var e *engine.Engine
	if source == "csv" {
		e, err = engine.Load(engine.ModeNormalForm, schema, func(emit func(db.RowBatch) error) error {
			return db.CSVRows(schema.Relation("R"), data, emit)
		})
	} else {
		e, err = provstore.LoadSnapshot(bytes.NewReader(data))
	}
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	after := live()
	fmt.Printf("resident %.1f B a row, %.1f ms\n", float64(after-before)/float64(e.NumRows()), took.Seconds()*1000)
	runtime.KeepAlive(e)
	runtime.KeepAlive(data)
}
