package engine_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"hyperprov/internal/benchutil"
	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/workload"
)

// mapWalkDAGSize is ProvDAGSize by its definition — the number of
// distinct nodes reachable from the annotations a reader holds — with
// the pointer-keyed map the engine counted with before node ids.
func mapWalkDAGSize(r engine.Reader) int64 {
	seen := make(map[*core.Expr]struct{})
	var walk func(x *core.Expr)
	walk = func(x *core.Expr) {
		if _, ok := seen[x]; ok {
			return
		}
		seen[x] = struct{}{}
		for _, k := range x.Children() {
			walk(k)
		}
	}
	r.Rows(func(_ string, _ db.Tuple, ann *core.Expr) { walk(ann) })
	return int64(len(seen))
}

// TestProvDAGSizeEqualsMapWalk: the id-indexed count equals the
// definition-following walk on TPC-C and Section 6.2 synthetic
// histories, in normal-form mode, in naive mode over shared nodes, and
// in naive copy-on-write mode (the naive default), whose annotations are
// raw trees without ids (the set's pointer fallback) — at the live
// horizon and at a historical one. The shards8 subtests open the engine
// with the deprecated WithShards(8), which must change nothing.
func TestProvDAGSizeEqualsMapWalk(t *testing.T) {
	tpccInitial, tpccTxns, err := benchutil.TPCCOpList(41, 400)
	if err != nil {
		t.Fatal(err)
	}
	synInitial, synTxns, err := workload.Generate(workload.Config{
		Tuples: 2000, Pool: 120, Group: 4, Updates: 300, QueriesPerTxn: 5, MergeRatio: 0.2, Seed: 43,
	})
	if err != nil {
		t.Fatal(err)
	}
	histories := []struct {
		name    string
		initial *db.Database
		txns    []db.Transaction
	}{{"tpcc", tpccInitial, tpccTxns}, {"synthetic", synInitial, synTxns}}
	modes := []struct {
		name string
		mode engine.Mode
		opts []engine.Option
		raw  bool
	}{
		{"nf", engine.ModeNormalForm, nil, false},
		{"naive-shared", engine.ModeNaive, []engine.Option{engine.WithCopyOnWrite(false)}, false},
		{"naive-cow", engine.ModeNaive, []engine.Option{engine.WithCopyOnWrite(true)}, true},
	}
	for _, h := range histories {
		for _, m := range modes {
			for _, shards := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/%s/shards%d", h.name, m.name, shards), func(t *testing.T) {
					e := engine.New(m.mode, h.initial, append([]engine.Option{engine.WithShards(shards)}, m.opts...)...)
					half := len(h.txns) / 2
					if err := e.ApplyAll(context.Background(), h.txns[:half]); err != nil {
						t.Fatal(err)
					}
					mid := e.Horizon()
					midWant := mapWalkDAGSize(e)
					if err := e.ApplyAll(context.Background(), h.txns[half:]); err != nil {
						t.Fatal(err)
					}
					want := mapWalkDAGSize(e)
					if got := e.ProvDAGSize(); got != want {
						t.Errorf("live: ProvDAGSize = %d, the map walk counts %d", got, want)
					}
					past := e.At(mid)
					if got, walked := past.ProvDAGSize(), mapWalkDAGSize(past); got != midWant || walked != midWant {
						t.Errorf("At(%d): ProvDAGSize = %d, the map walk counts %d now and counted %d then", mid, got, walked, midWant)
					}
					if want <= midWant {
						t.Errorf("the second half of the history added no nodes (%d then, %d now)", midWant, want)
					}
					raw := false
					e.Rows(func(_ string, _ db.Tuple, ann *core.Expr) { raw = raw || !ann.Interned() })
					if raw != m.raw {
						t.Errorf("raw annotations present = %v, want %v", raw, m.raw)
					}
				})
			}
		}
	}
}

// TestProvDAGSizeAllocs: counting the DAG of the wire benchmark's
// bulk_scan end state (seed 1: 252 754 rows, 486 873 nodes) allocates a
// bitset over the ids it meets, 64 kB, not an entry per node — 36.4 MB
// in 4 066 mallocs when the set was a Go map.
func TestProvDAGSizeAllocs(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("applies 42 000 scanning updates over 200 000 rows")
	}
	initial, txns, err := workload.Generate(workload.Config{
		Tuples: 200000, Pool: 4200, Group: 1, Updates: 42000, QueriesPerTxn: 10, MergeRatio: 0.1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.ModeNormalForm, initial, engine.WithAutoIndex(4))
	if err := e.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	got := e.ProvDAGSize()
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	kB := float64(after.TotalAlloc-before.TotalAlloc) / 1024
	t.Logf("%d rows, %d nodes counted in %v, %.0f kB and %d mallocs", e.NumRows(), got, took, kB, after.Mallocs-before.Mallocs)
	if want := mapWalkDAGSize(e); got != want {
		t.Errorf("ProvDAGSize = %d, the map walk counts %d", got, want)
	}
	if kB > 256 {
		t.Errorf("ProvDAGSize allocated %.0f kB, want at most 256", kB)
	}
}
