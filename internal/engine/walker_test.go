package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/upstruct"
	"hyperprov/internal/workload"
)

// wrappedDB stands for wal.Store, wal.Follower or any embedder: a DB
// that only forwards. Its Rows/EachRow fail the test: the valuation
// passes walk the pinned view's rows, never a wrapper's materialized
// annotations.
type wrappedDB struct {
	DB
	t *testing.T
}

func (w wrappedDB) Rows(func(rel string, t db.Tuple, ann *core.Expr)) {
	w.t.Error("a valuation pass streamed a wrapper's Rows")
}

func (w wrappedDB) EachRow(string, func(t db.Tuple, ann *core.Expr)) {
	w.t.Error("a valuation pass streamed a wrapper's EachRow")
}

func tupleKeys(d *db.Database) []string {
	var keys []string
	for _, rel := range d.Schema().Names() {
		d.Instance(rel).Each(func(t db.Tuple) { keys = append(keys, rel+"/"+t.Key()) })
	}
	return keys
}

// TestChunkWalkerThroughWrappers: SpecializeParallel, LiveChunks and
// BoolRestrictParallel walk the pinned view's chunks behind a forwarding
// wrapper and behind views — same tuples in the same order as the
// sequential BoolRestrict on the bare engine, for every worker count.
func TestChunkWalkerThroughWrappers(t *testing.T) {
	cfg := workload.Default(0.003) // 3000 rows: several chunks
	cfg.QueriesPerTxn = 5
	initial, txns, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dead := map[core.Annot]bool{core.QueryAnnot(txns[0].Label): false, core.TupleAnnot("t7"): false}
	env := upstruct.MapEnv(dead, true)
	val := upstruct.Dead(core.QueryAnnot(txns[0].Label), core.TupleAnnot("t7"))
	ctx := context.Background()

	e := Open(ModeNormalForm, initial)
	if err := e.ApplyAll(ctx, txns); err != nil {
		t.Fatal(err)
	}
	want := tupleKeys(BoolRestrict(e, env))
	if len(want) <= 2*walkChunkRows {
		t.Fatalf("only %d live tuples: the test needs several chunks", len(want))
	}
	mid := e.At(EpochSeq(uint64(len(txns) / 2)))
	wantMid := tupleKeys(BoolRestrict(mid, env))

	readers := []struct {
		name string
		r    Reader
		want []string
	}{
		{"engine", e, want},
		{"wrapper", wrappedDB{DB: e, t: t}, want},
		{"view", mid, wantMid},
		{"wrapped view", struct{ View }{mid}, wantMid},
	}
	for _, rd := range readers {
		for _, workers := range []int{1, 2, 7} {
			name := fmt.Sprintf("%s/workers=%d", rd.name, workers)

			d, err := BoolRestrictParallel(ctx, rd.r, env, workers)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := tupleKeys(d); !slices.Equal(got, rd.want) {
				t.Errorf("%s: BoolRestrictParallel differs from BoolRestrict (%d vs %d tuples, or order)", name, len(got), len(rd.want))
			}

			parts, err := LiveChunks(ctx, rd.r, val, workers, func(c Chunk, live []db.Tuple) []string {
				keys := make([]string, len(live))
				for i, tp := range live {
					keys[i] = c.Rel + "/" + tp.Key()
				}
				return keys
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var got []string
			for _, p := range parts {
				got = append(got, p...)
			}
			if !slices.Equal(got, rd.want) {
				t.Errorf("%s: LiveChunks concatenation differs from BoolRestrict", name)
			}

			var rows, live atomic.Int64
			err = SpecializeParallel[bool](ctx, rd.r, upstruct.Bool, env, workers, func(_ string, _ db.Tuple, v bool) {
				rows.Add(1)
				if v {
					live.Add(1)
				}
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if int(live.Load()) != len(rd.want) {
				t.Errorf("%s: SpecializeParallel saw %d live of %d rows, want %d live", name, live.Load(), rows.Load(), len(rd.want))
			}

			// The same resolution serves the stats endpoint's boot
			// section: every reader has an engine behind it.
			if b := BootOf(rd.r); b.Source != "database" || b.Rows != initial.NumTuples() {
				t.Errorf("%s: BootOf = %+v", name, b)
			}
		}
	}
}

// TestChunkWalkerCancellation: a context that ended before the pass
// yields ctx.Err() and no results, behind a wrapper too.
func TestChunkWalkerCancellation(t *testing.T) {
	initial, _, err := workload.Generate(workload.Default(0.003))
	if err != nil {
		t.Fatal(err)
	}
	e := New(ModeNormalForm, initial)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	allTrue := func(core.Annot) bool { return true }
	for _, r := range []Reader{e, wrappedDB{DB: e, t: t}} {
		visited := false
		out, err := LiveChunks(ctx, r, upstruct.Dead(), 2, func(Chunk, []db.Tuple) int { visited = true; return 0 })
		if !errors.Is(err, context.Canceled) || out != nil || visited {
			t.Errorf("%T: LiveChunks on a cancelled context returned (%v, %v), visited=%v", r, out, err, visited)
		}
		if d, err := BoolRestrictParallel(ctx, r, allTrue, 2); !errors.Is(err, context.Canceled) || d != nil {
			t.Errorf("%T: BoolRestrictParallel on a cancelled context returned (%v, %v)", r, d, err)
		}
	}
}
