package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

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

// tupleKeys lists d's tuples as rel/key, relations in the order given
// (the schema's when none is), tuples in insertion order.
func tupleKeys(d *db.Database, order ...string) []string {
	if order == nil {
		order = d.Schema().Names()
	}
	var keys []string
	for _, rel := range order {
		d.Instance(rel).Each(func(t db.Tuple) { keys = append(keys, rel+"/"+t.Key()) })
	}
	return keys
}

// withRelations is d plus two relations declared after it, "A" with a
// rows and "M" with m, so schema, sorted and reversed relation orders
// all differ.
func withRelations(t *testing.T, d *db.Database, a, m int) *db.Database {
	t.Helper()
	rels := []*db.RelationSchema{}
	for _, name := range d.Schema().Names() {
		rels = append(rels, d.Schema().Relation(name))
	}
	for _, name := range []string{"A", "M"} {
		rels = append(rels, db.MustRelationSchema(name, db.Attribute{Name: "id", Kind: db.KindInt}, db.Attribute{Name: "v", Kind: db.KindString}))
	}
	out := db.NewDatabase(db.MustSchema(rels...))
	for _, name := range d.Schema().Names() {
		d.Instance(name).Each(func(tp db.Tuple) {
			if err := out.InsertTuple(name, tp); err != nil {
				t.Fatal(err)
			}
		})
	}
	for name, n := range map[string]int{"A": a, "M": m} {
		for i := 0; i < n; i++ {
			if err := out.InsertTuple(name, db.Tuple{db.I(int64(i)), db.S(fmt.Sprintf("%s%d", name, i%97))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// relationOrders are the orders a stream is asked for: schema, sorted
// and reversed schema.
func relationOrders(s *db.Schema) map[string][]string {
	sorted := slices.Clone(s.Names())
	slices.Sort(sorted)
	reversed := slices.Clone(s.Names())
	slices.Reverse(reversed)
	return map[string][]string{"schema": s.Names(), "sorted": sorted, "reversed": reversed}
}

// streamKeys collects a LiveStream pass as rel/key in emit order,
// through per-slot scratch as a real consumer keeps it, and checks the
// emit contract: the first call carries the first window (or every
// chunk), later ones one chunk each, and only the last says no more.
func streamKeys(t *testing.T, ctx context.Context, r Reader, val *upstruct.Valuation, workers int, rels []string) ([]string, error) {
	t.Helper()
	window := StreamWindow(workers)
	var got []string
	calls, ended := 0, false
	slots, err := LiveStream(ctx, r, val, workers, rels, func(c Chunk[[]string], live LiveRows) {
		keys := (*c.Slot)[:0]
		live.Each(func(tp db.Tuple) {
			keys = append(keys, c.Rel+"/"+tp.Key())
		})
		*c.Slot = keys
	}, func(ready []Chunk[[]string], more bool) error {
		if ended {
			t.Errorf("emit called after more=false")
		}
		if calls++; calls > 1 && len(ready) != 1 || calls == 1 && more && len(ready) != window {
			t.Errorf("emit call %d carried %d chunks (window %d, more %v)", calls, len(ready), window, more)
		}
		for _, c := range ready {
			got = append(got, *c.Slot...)
		}
		ended = !more
		return nil
	})
	if err == nil && !ended {
		t.Errorf("the stream ended without more=false")
	}
	if err == nil && len(slots) != window {
		t.Errorf("the stream handed back %d slots, window %d", len(slots), window)
	}
	return got, err
}

// TestChunkWalkerThroughWrappers: SpecializeParallel, LiveStream (in
// schema, sorted and reversed relation order) and BoolRestrictParallel
// walk the pinned view's chunks behind a forwarding wrapper and behind
// views — same tuples in the same order as the sequential BoolRestrict
// on the bare engine, for every worker count.
func TestChunkWalkerThroughWrappers(t *testing.T) {
	cfg := workload.Default(0.003) // 3000 rows: several chunks
	cfg.QueriesPerTxn = 5
	initial, txns, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial = withRelations(t, initial, 1500, 2100)
	dead := map[core.Annot]bool{core.QueryAnnot(txns[0].Label): false, core.TupleAnnot("t7"): false}
	env := upstruct.MapEnv(dead, true)
	val := upstruct.Dead(core.QueryAnnot(txns[0].Label), core.TupleAnnot("t7"))
	ctx := context.Background()

	e := Open(ModeNormalForm, initial)
	if err := e.ApplyAll(ctx, txns); err != nil {
		t.Fatal(err)
	}
	full := BoolRestrict(e, env)
	if n := len(tupleKeys(full)); n <= 2*walkChunkRows {
		t.Fatalf("only %d live tuples: the test needs several chunks", n)
	}
	mid := e.At(uint64(len(txns) / 2))
	past := BoolRestrict(mid, env)

	readers := []struct {
		name string
		r    Reader
		want *db.Database
	}{
		{"engine", e, full},
		{"wrapper", wrappedDB{DB: e, t: t}, full},
		{"view", mid, past},
		{"wrapped view", struct{ View }{mid}, past},
	}
	for _, rd := range readers {
		want := tupleKeys(rd.want)
		for _, workers := range []int{1, 2, 7} {
			name := fmt.Sprintf("%s/workers=%d", rd.name, workers)

			d, err := BoolRestrictParallel(ctx, rd.r, env, workers)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := tupleKeys(d); !slices.Equal(got, want) {
				t.Errorf("%s: BoolRestrictParallel differs from BoolRestrict (%d vs %d tuples, or order)", name, len(got), len(want))
			}

			for order, rels := range relationOrders(initial.Schema()) {
				got, err := streamKeys(t, ctx, rd.r, val, workers, rels)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !slices.Equal(got, tupleKeys(rd.want, rels...)) {
					t.Errorf("%s: LiveStream in %s order differs from BoolRestrict", name, order)
				}
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
			if int(live.Load()) != len(want) {
				t.Errorf("%s: SpecializeParallel saw %d live of %d rows, want %d live", name, live.Load(), rows.Load(), len(want))
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
// yields ctx.Err() and no results, behind a wrapper too; one cancelled
// from inside SpecializeParallel's f in the middle of the pass yields
// ctx.Err() once every worker has exited — no f call after the pass
// returns, no goroutine left — for any worker count, behind an engine,
// a view and a wrapper.
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
		_, err := LiveStream(ctx, r, upstruct.Dead(), 2, e.Schema().Names(),
			func(Chunk[struct{}], LiveRows) { visited = true },
			func([]Chunk[struct{}], bool) error { visited = true; return nil })
		if !errors.Is(err, context.Canceled) || visited {
			t.Errorf("%T: LiveStream on a cancelled context returned %v, visited=%v", r, err, visited)
		}
		if d, err := BoolRestrictParallel(ctx, r, allTrue, 2); !errors.Is(err, context.Canceled) || d != nil {
			t.Errorf("%T: BoolRestrictParallel on a cancelled context returned (%v, %v)", r, d, err)
		}
		visited = false
		err = SpecializeParallel[bool](ctx, r, upstruct.Bool, allTrue, 2, func(string, db.Tuple, bool) { visited = true })
		if !errors.Is(err, context.Canceled) || visited {
			t.Errorf("%T: SpecializeParallel on a cancelled context returned %v, visited=%v", r, err, visited)
		}
	}

	readers := map[string]Reader{"engine": e, "view": e.At(0), "wrapper": wrappedDB{DB: e, t: t}}
	for name, r := range readers {
		for _, workers := range []int{1, 2, 7} {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			var calls atomic.Int64
			var returned atomic.Bool
			err := SpecializeParallel[bool](ctx, r, upstruct.Bool, allTrue, workers, func(string, db.Tuple, bool) {
				if returned.Load() {
					t.Errorf("%s, workers=%d: f called after the pass returned", name, workers)
				}
				if calls.Add(1) == walkChunkRows+walkChunkRows/2 {
					cancel()
					time.Sleep(5 * time.Millisecond) // the rest of the chunk would run after a pass that did not wait
				}
			})
			returned.Store(true)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s, workers=%d: a pass cancelled from f returned %v", name, workers, err)
			}
			waitGoroutines(t, base)
			cancel()
		}
	}
}

// waitGoroutines polls until no more goroutines run than base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the pass", runtime.NumGoroutine(), base)
		}
	}
}

// TestLiveStreamWindow holds LiveStream to its window: with emit held on
// a channel, no worker encodes a chunk more than StreamWindow(workers)
// ahead of what emit has returned; a context cancelled while emit is
// held ends the pass with ctx.Err() and leaves no goroutine behind; and
// every relation order comes out as BoolRestrict's tuples in that
// order.
func TestLiveStreamWindow(t *testing.T) {
	initial, _, err := workload.Generate(workload.Default(0.006))
	if err != nil {
		t.Fatal(err)
	}
	initial = withRelations(t, initial, 5000, 300)
	e := Open(ModeNormalForm, initial)
	val := upstruct.Dead(core.TupleAnnot("t3"))
	chunks := 0
	for _, name := range initial.Schema().Names() {
		chunks += (initial.Instance(name).Len() + walkChunkRows - 1) / walkChunkRows
	}

	t.Run("bounded", func(t *testing.T) {
		for _, workers := range []int{1, 2, 3} {
			window := int64(StreamWindow(workers))
			if int64(chunks) < 2*window {
				t.Fatalf("%d chunks do not exceed a window of %d twice", chunks, window)
			}
			var encoded, written, over atomic.Int64
			release, done := make(chan struct{}), make(chan error, 1)
			go func() {
				_, err := LiveStream(context.Background(), e, val, workers, initial.Schema().Names(), func(Chunk[struct{}], LiveRows) {
					if n := encoded.Add(1); n > written.Load()+window {
						over.Store(n - written.Load())
					}
				}, func(ready []Chunk[struct{}], _ bool) error {
					<-release
					written.Add(int64(len(ready)))
					return nil
				})
				done <- err
			}()
			for finished := false; !finished; {
				time.Sleep(time.Millisecond) // the workers may run ahead while emit is held
				select {
				case release <- struct{}{}:
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
					finished = true
				}
			}
			if n := over.Load(); n > 0 {
				t.Errorf("workers=%d: a chunk was encoded %d ahead of emit, window %d", workers, n, window)
			}
			if encoded.Load() != int64(chunks) || written.Load() != int64(chunks) {
				t.Errorf("workers=%d: %d chunks encoded and %d emitted, want %d", workers, encoded.Load(), written.Load(), chunks)
			}
		}
	})

	t.Run("cancelled in emit", func(t *testing.T) {
		for _, workers := range []int{1, 2, 3} {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			entered, release, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
			calls := 0
			go func() {
				_, err := LiveStream(ctx, e, val, workers, initial.Schema().Names(), func(Chunk[struct{}], LiveRows) {}, func([]Chunk[struct{}], bool) error {
					if calls++; calls == 2 { // past the first window, chunks remain
						close(entered)
						<-release
					}
					return nil
				})
				done <- err
			}()
			<-entered
			cancel()
			close(release)
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Errorf("workers=%d: a pass cancelled in emit returned %v", workers, err)
			}
			if calls != 2 {
				t.Errorf("workers=%d: emit called %d times, the pass should have ended at the second", workers, calls)
			}
			waitGoroutines(t, base)
		}
	})

	t.Run("orders", func(t *testing.T) {
		env := upstruct.MapEnv(map[core.Annot]bool{core.TupleAnnot("t3"): false}, true)
		want := BoolRestrict(e, env)
		for order, rels := range relationOrders(initial.Schema()) {
			for _, workers := range []int{1, 2, 7} {
				got, err := streamKeys(t, context.Background(), e, val, workers, rels)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, tupleKeys(want, rels...)) {
					t.Errorf("%s order, workers=%d: the stream's tuples differ from BoolRestrict's in that order", order, workers)
				}
			}
		}
	})
}

// TestSpecializeWalksTheDAG: a row modified onto itself in each of 26
// epochs has a base that holds the previous one twice, a tree of about
// 2^26 nodes over a DAG of about a hundred. SpecializeParallel values it
// as its DAG: under each valuation the rows it finds true are the live
// rows of LiveStream (the memoising kernel), and a pass takes well under
// 50 ms. Walked as a tree, one pass took seconds.
func TestSpecializeWalksTheDAG(t *testing.T) {
	e := kvEngine(t, 3)
	self := db.Modify("R", db.ConstPattern(kv(1, 1)), []db.SetClause{db.Keep(), db.SetTo(db.I(1))})
	for i := 0; i < 26; i++ {
		if err := e.ApplyTransaction(&db.Transaction{Label: fmt.Sprintf("s%d", i), Updates: []db.Update{self}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, dead := range [][]core.Annot{
		nil,
		{core.QueryAnnot("s5")},
		{core.TupleAnnot("t1")},
		{core.QueryAnnot("s25"), core.TupleAnnot("t0")},
	} {
		isDead := map[core.Annot]bool{}
		for _, a := range dead {
			isDead[a] = true
		}
		var spec []string
		rows := 0
		start := time.Now()
		err := SpecializeParallel(context.Background(), e, upstruct.Bool, func(a core.Annot) bool { return !isDead[a] }, 1,
			func(_ string, tup db.Tuple, in bool) {
				rows++
				if in {
					spec = append(spec, tup.String())
				}
			})
		took := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if took > 50*time.Millisecond {
			t.Errorf("dead %v: a SpecializeParallel pass over %d rows took %v", dead, rows, took)
		}
		var live []string
		if _, err := LiveStream(context.Background(), e, upstruct.Dead(dead...), 1, []string{"R"},
			func(c Chunk[struct{}], l LiveRows) { l.Each(func(tup db.Tuple) { live = append(live, tup.String()) }) },
			func([]Chunk[struct{}], bool) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if rows != e.NumRows() || !slices.Equal(spec, live) {
			t.Errorf("dead %v: SpecializeParallel valued %d of %d rows and found %v true, LiveStream %v", dead, rows, e.NumRows(), spec, live)
		}
	}
}
