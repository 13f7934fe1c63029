package engine_test

// Allocation-regression gates for the hot read paths. The interning /
// columnar-storage work makes a hard claim: once the engine is in
// steady state, point lookups (Annotation, NF), streaming selections
// (SelectEach) and streaming passes (EachRow) allocate nothing — no
// Key() strings, no scratch slices, no boxing. testing.AllocsPerRun
// turns that claim into a regression test; if any of these gates start
// failing, a hot path regained an allocation.

import (
	"context"
	"runtime"
	"testing"

	"hyperprov/internal/benchutil"
	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/workload"
)

// Sinks defeat dead-code elimination inside AllocsPerRun bodies.
var (
	sinkExpr  *core.Expr
	sinkNF    core.NF
	sinkCount int
)

func allocWorkload(t *testing.T) (*db.Database, []db.Transaction) {
	t.Helper()
	initial, txns, err := workload.Generate(workload.Config{
		Tuples: 300, Pool: 60, Group: 4, Updates: 60,
		QueriesPerTxn: 3, MergeRatio: 0.3, Seed: 11,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return initial, txns
}

// pickTuple returns a tuple that survives the workload (steady state:
// it is present at the committed horizon).
func pickTuple(t *testing.T, e *engine.Engine) db.Tuple {
	t.Helper()
	tuples, err := e.Select("R", db.AllPattern(5))
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	if len(tuples) == 0 {
		t.Fatal("workload left no visible tuples")
	}
	return tuples[len(tuples)/2]
}

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	// Warm-up: first calls may grow pooled scratch or lazily build maps.
	f()
	if avg := testing.AllocsPerRun(200, f); avg != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, avg)
	}
}

func TestAllocFreeReads(t *testing.T) {
	initial, txns := allocWorkload(t)
	for _, mode := range []engine.Mode{engine.ModeNaive, engine.ModeNormalForm} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			e := engine.New(mode, initial)
			if err := e.ApplyAll(context.Background(), txns); err != nil {
				t.Fatalf("apply: %v", err)
			}
			tup := pickTuple(t, e)

			assertZeroAllocs(t, "Annotation", func() {
				sinkExpr = e.Annotation("R", tup)
			})
			if sinkExpr == nil {
				t.Fatal("Annotation returned nil for a visible tuple")
			}
			if mode == engine.ModeNormalForm {
				assertZeroAllocs(t, "NF", func() {
					sinkNF = e.NF("R", tup)
				})
				if sinkNF.Base() == nil {
					t.Fatal("NF returned nil for a visible tuple")
				}
			}

			// Streaming selection =-pinned on the indexed grp column:
			// reads walk the visible rows, so the index plays no part.
			if err := e.BuildIndex("R", "grp"); err != nil {
				t.Fatalf("build index: %v", err)
			}
			sel := db.Pattern{
				db.AnyVar("id"),
				db.Const(tup[1]),
				db.AnyVar("cat"),
				db.AnyVar("val"),
				db.AnyVar("pad"),
			}
			each := func(db.Tuple) { sinkCount++ }
			assertZeroAllocs(t, "SelectEach/indexed", func() {
				if err := e.SelectEach("R", sel, each); err != nil {
					t.Fatalf("SelectEach: %v", err)
				}
			})

			// Streaming selection on the unindexed cat column: the same
			// walk of the visible rows, no materialization.
			selCat := db.Pattern{
				db.AnyVar("id"),
				db.AnyVar("grp"),
				db.Const(tup[2]),
				db.AnyVar("val"),
				db.AnyVar("pad"),
			}
			assertZeroAllocs(t, "SelectEach/full", func() {
				if err := e.SelectEach("R", selCat, each); err != nil {
					t.Fatalf("SelectEach: %v", err)
				}
			})

			rowFn := func(_ db.Tuple, ann *core.Expr) {
				if ann != nil {
					sinkCount++
				}
			}
			assertZeroAllocs(t, "EachRow", func() {
				e.EachRow("R", rowFn)
			})
		})
	}
}

// applyAllocsPerTxn replays an op list in-process on the engine the
// server builds for the wire benchmark — the advisor at 4 —
// and returns what the write path allocated per transaction.
func applyAllocsPerTxn(t *testing.T, initial *db.Database, txns []db.Transaction, hook engine.CommitHook) (kB, mallocs float64) {
	t.Helper()
	e := engine.New(engine.ModeNormalForm, initial, engine.WithAutoIndex(4))
	e.SetCommitHook(hook)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := e.ApplyBatch(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	n := float64(len(txns))
	return float64(after.TotalAlloc-before.TotalAlloc) / n / 1024, float64(after.Mallocs-before.Mallocs) / n
}

// TestApplyAllocsPerTxn gates what the write path allocates per
// transaction on the wire benchmark's oltp_point op list (seed 1, 12 000
// TPC-C transactions). Before the word columns, the embedded normal form and
// the writer-owned scratch this read 23.4 kB and 212 mallocs; a
// coordinator that analysed routes, numbered rows through a closure and
// parked events for its one shard read 15.2 kB and 118; with a Go map
// entry, a 96-byte node and an operand slice per expression node the
// cold replay read 13.59 kB and 84.4; with posting lists of row pointers
// grown by append, 11.43 and 62.7; with posting lists of uint32 row
// positions in never-copied chunks, 9.83 and 60.0; with 32-byte
// versions whose open normal-form state lives in records the writer
// recycles, 8.35 and 48.1; with a row's values stored once, in the word
// columns, 6.57 and 36.2. With the row pointers a column too and no
// sequence number in the row (a row and its first version one 64-byte
// object, not an 80-byte one) it read 6.12 and 36.2. With 48-byte
// expression nodes over head segments that are never copied it read
// 5.60 and 36.3. With a row and its first version one 56-byte element
// of the table's record column, written in place, and a row map of
// 4-byte positions it read 5.02 and 18.5 (warm 3.77 and 18.4). With
// every version a 16-byte entry of the table's version column, appended
// frozen at commit — a later version allocates nothing of its own, a row
// and its first version take 40 bytes — it read 4.60 and 6.9 (warm
// 3.37 and 6.7). With no creation sequence column beside the rows it
// reads 4.46 and 6.8 (warm 3.22 and 6.6) — what the warm replay
// allocates plus 48 bytes a node and its share of the heads — gated 5 %
// above. A commit hook adds next
// to nothing: an epoch lends refs to its rows straight to the hook from
// a recycled buffer.
func TestApplyAllocsPerTxn(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("allocation counts are taken without the race detector, on the full op list")
	}
	initial, txns, err := benchutil.TPCCOpList(1, 12000)
	if err != nil {
		t.Fatal(err)
	}
	kB, mallocs := applyAllocsPerTxn(t, initial, txns, nil)
	t.Logf("engine apply: %.2f kB and %.1f mallocs per transaction", kB, mallocs)
	if kB > 4.68 || mallocs > 7.2 {
		t.Errorf("engine apply allocates %.2f kB and %.1f mallocs per transaction, want at most 4.68 kB and 7.2", kB, mallocs)
	}
	// The first replay interned the log's expression nodes, so the hook's
	// cost is read between two warm replays.
	kB, mallocs = applyAllocsPerTxn(t, initial, txns, nil)
	events := 0
	hkB, hmallocs := applyAllocsPerTxn(t, initial, txns, func(engine.CommitEvent) { events++ })
	t.Logf("warm: %.2f kB and %.1f mallocs per transaction, %.2f and %.1f with a commit hook", kB, mallocs, hkB, hmallocs)
	if events != len(txns) {
		t.Errorf("the hook heard %d events for %d transactions", events, len(txns))
	}
	if hkB > kB+0.1 || hmallocs > mallocs+1 {
		t.Errorf("a no-op commit hook costs %.2f kB and %.1f mallocs per transaction, want at most 0.1 kB and 1", hkB-kB, hmallocs-mallocs)
	}
}
