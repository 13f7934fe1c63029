package engine_test

// MVCC time travel is tested differentially against replay: the view
// pinned at epoch k of one engine that applied the whole log must be
// indistinguishable — annotations, normal forms, row streams, size
// measures, and snapshot bytes — from a fresh engine that stopped
// after the first k transactions. The check runs in both provenance
// modes, so the lock-free version chains are held to exactly the
// behavior of the old locked reads. Subtests named after a shard count
// above one open the engine with the deprecated WithShards, which must
// change nothing (see sharded_test.go).

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/provstore"
	"hyperprov/internal/workload"
)

// mvccWorkload is one seeded random log shared by the MVCC tests:
// small enough that per-epoch replay stays fast, rich enough to
// exercise inserts, deletes and merges.
func mvccWorkload(t *testing.T) (*db.Database, []db.Transaction) {
	t.Helper()
	initial, txns, err := workload.Generate(workload.Config{
		Tuples: 40, Pool: 10, Group: 3, Updates: 24,
		QueriesPerTxn: 4, MergeRatio: 0.4, Seed: 11,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return initial, txns
}

func snapshotBytes(t *testing.T, src provstore.Source) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := provstore.SaveSnapshot(&buf, src); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return buf.Bytes()
}

// readerRows streams a reader's rows in deterministic order.
func readerRows(e engine.Reader) []string {
	var out []string
	e.Rows(func(rel string, tp db.Tuple, ann *core.Expr) {
		out = append(out, rel+"\x00"+tp.Key()+"\x00"+ann.String())
	})
	return out
}

// TestMVCCTimeTravelDifferential applies a log one transaction per
// epoch and asserts that At(epoch k) of the full engine matches a
// fresh replay of the first k transactions at every k, for both
// implementations and both modes.
func TestMVCCTimeTravelDifferential(t *testing.T) {
	initial, txns := mvccWorkload(t)
	for _, shards := range []int{1, 8} {
		for _, mode := range []engine.Mode{engine.ModeNaive, engine.ModeNormalForm} {
			t.Run(fmt.Sprintf("shards%d_%s", shards, mode), func(t *testing.T) {
				full := engine.Open(mode, initial, engine.WithShards(shards))
				for _, txn := range txns {
					txn := txn
					if err := full.ApplyTransaction(&txn); err != nil {
						t.Fatalf("apply: %v", err)
					}
				}
				if got, want := full.Horizon(), uint64(len(txns)); got != want {
					t.Fatalf("horizon epoch = %d, want %d (one epoch per transaction)", got, want)
				}
				for k := 0; k <= len(txns); k++ {
					oracle := engine.Open(mode, initial, engine.WithShards(shards))
					for i := 0; i < k; i++ {
						txn := txns[i]
						if err := oracle.ApplyTransaction(&txn); err != nil {
							t.Fatalf("oracle apply: %v", err)
						}
					}
					view := full.At(uint64(k))
					if got, want := view.AsOf(), uint64(k); got != want {
						t.Fatalf("epoch %d: AsOf = %d, want %d", k, got, want)
					}
					vRows, oRows := readerRows(view), readerRows(oracle)
					if len(vRows) != len(oRows) {
						t.Fatalf("epoch %d: view has %d rows, replay %d", k, len(vRows), len(oRows))
					}
					for i := range vRows {
						if vRows[i] != oRows[i] {
							t.Fatalf("epoch %d row %d:\nview:   %s\nreplay: %s", k, i, vRows[i], oRows[i])
						}
					}
					// NF agreement on every replayed row (the zero NF on
					// both sides in naive mode).
					oracle.Rows(func(rel string, tp db.Tuple, _ *core.Expr) {
						vn, on := view.NF(rel, tp), oracle.NF(rel, tp)
						switch {
						case (vn.Base() == nil) != (on.Base() == nil):
							t.Fatalf("epoch %d: NF presence differs for %s %s", k, rel, tp)
						case vn.Base() != nil && vn.ToExpr() != on.ToExpr():
							t.Fatalf("epoch %d: NF differs for %s %s", k, rel, tp)
						}
					})
					if got, want := view.NumRows(), oracle.NumRows(); got != want {
						t.Fatalf("epoch %d: NumRows = %d, want %d", k, got, want)
					}
					if got, want := view.SupportSize(), oracle.SupportSize(); got != want {
						t.Fatalf("epoch %d: SupportSize = %d, want %d", k, got, want)
					}
					if got, want := view.ProvSize(), oracle.ProvSize(); got != want {
						t.Fatalf("epoch %d: ProvSize = %d, want %d", k, got, want)
					}
					if got, want := view.ProvDAGSize(), oracle.ProvDAGSize(); got != want {
						t.Fatalf("epoch %d: ProvDAGSize = %d, want %d", k, got, want)
					}
					if !bytes.Equal(snapshotBytes(t, view), snapshotBytes(t, oracle)) {
						t.Fatalf("epoch %d: snapshot bytes differ from replay", k)
					}
				}
			})
		}
	}
}

// TestMVCCViewStability pins views and asserts their bytes never move
// while the engine keeps applying transactions after them.
func TestMVCCViewStability(t *testing.T) {
	initial, txns := mvccWorkload(t)
	t.Run("shards1", func(t *testing.T) {
		e := engine.Open(engine.ModeNormalForm, initial)
		half := len(txns) / 2
		if err := e.ApplyAll(context.Background(), txns[:half]); err != nil {
			t.Fatalf("apply: %v", err)
		}
		view := e.At(e.Horizon())
		before := snapshotBytes(t, view)
		if err := e.ApplyAll(context.Background(), txns[half:]); err != nil {
			t.Fatalf("apply rest: %v", err)
		}
		if !bytes.Equal(before, snapshotBytes(t, view)) {
			t.Fatalf("pinned view changed after %d further transactions", len(txns)-half)
		}
		if e.Horizon() <= view.AsOf() {
			t.Fatalf("horizon did not advance past the pinned view")
		}
		// At with the latest-horizon sentinel tracks the live state.
		latest := snapshotBytes(t, e.At(e.Horizon()))
		live := snapshotBytes(t, e)
		if !bytes.Equal(latest, live) {
			t.Fatalf("At(Horizon()) and live engine snapshots differ")
		}
	})
}

// TestMVCCPinnedReadersDuringApply is the -race stress of the
// tentpole: readers pin views and stream rows while ApplyAll runs
// concurrently. Each reader's view must stay internally consistent
// (every streamed annotation re-readable through Annotation at the
// same pinned horizon) and the horizon must only move forward.
func TestMVCCPinnedReadersDuringApply(t *testing.T) {
	initial, txns := mvccWorkload(t)
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			e := engine.Open(engine.ModeNormalForm, initial, engine.WithShards(shards))
			var wg sync.WaitGroup
			stop := make(chan struct{})
			var lastH atomic.Uint64
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						h := e.Horizon()
						if prev := lastH.Load(); h < prev {
							t.Errorf("horizon went backwards: %#x after %#x", h, prev)
							return
						}
						lastH.Store(h)
						v := e.At(h)
						n := 0
						v.Rows(func(rel string, tp db.Tuple, ann *core.Expr) {
							n++
							if got := v.Annotation(rel, tp); got != ann {
								t.Errorf("streamed annotation and point lookup disagree at %#x", h)
							}
						})
						if n < initial.NumTuples() {
							t.Errorf("view at %#x lost initial rows: %d < %d", h, n, initial.NumTuples())
							return
						}
						_ = v.SupportSize()
						_ = engine.LiveDB(v)
					}
				}()
			}
			for i := 0; i < 6; i++ {
				if err := e.ApplyAll(context.Background(), txns); err != nil {
					t.Errorf("apply: %v", err)
					break
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestSelectTimeTravel: Select through a pinned view agrees with a
// fresh replay at every epoch, whatever index the engine holds — one
// built long after the epochs queried, or one built before the log under
// live matching, whose posting lists keep the rows the log's deletions
// take out of the matchable set. Reads walk the rows visible at their
// horizon and never consult an index, so neither its age nor its
// contents may change an answer.
func TestSelectTimeTravel(t *testing.T) {
	schema := db.MustSchema(db.MustRelationSchema("R",
		db.Attribute{Name: "K", Kind: db.KindInt},
		db.Attribute{Name: "V", Kind: db.KindInt},
	))
	var txns []db.Transaction
	for i := int64(0); i < 8; i++ {
		txns = append(txns, db.Transaction{
			Label: fmt.Sprintf("t%d", i),
			Updates: []db.Update{
				db.Insert("R", db.Tuple{db.I(i), db.I(i % 3)}),
				db.Delete("R", db.Pattern{db.Const(db.I(i - 4)), db.AnyVar("x")}),
			},
		})
	}
	sels := []db.Pattern{
		{db.AnyVar("x"), db.Const(db.I(0))},
		{db.AnyVar("x"), db.Const(db.I(2))},
		{db.Const(db.I(3)), db.AnyVar("x")},
	}
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			for _, early := range []bool{false, true} {
				// Under live matching a deletion takes its row out of the
				// matchable set; the early index still lists every row.
				opts := []engine.Option{engine.WithShards(shards), engine.WithLiveMatching(early)}
				full := engine.OpenEmpty(engine.ModeNormalForm, schema, opts...)
				if early {
					if err := full.BuildIndex("R", "V"); err != nil {
						t.Fatal(err)
					}
				}
				for i := range txns {
					txn := txns[i]
					if err := full.ApplyTransaction(&txn); err != nil {
						t.Fatal(err)
					}
				}
				if !early {
					if err := full.BuildIndex("R", "V"); err != nil {
						t.Fatal(err)
					}
				} else if info := full.IndexStats(); len(info) != 1 || info[0].Entries != full.NumRows() || engine.PostingListsOffRows(full.(*engine.Engine)) != "" {
					t.Fatalf("the early index does not list every row of %d: %+v", full.NumRows(), info)
				}
				for k := 0; k <= len(txns); k++ {
					oracle := engine.OpenEmpty(engine.ModeNormalForm, schema, opts...)
					for i := 0; i < k; i++ {
						txn := txns[i]
						if err := oracle.ApplyTransaction(&txn); err != nil {
							t.Fatal(err)
						}
					}
					view := full.At(uint64(k))
					for si, sel := range sels {
						want, err := oracle.Select("R", sel)
						if err != nil {
							t.Fatal(err)
						}
						got, err := view.Select("R", sel)
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != len(want) {
							t.Fatalf("early=%v epoch %d sel %d: %d rows, replay %d", early, k, si, len(got), len(want))
						}
						for i := range got {
							if got[i].Key() != want[i].Key() {
								t.Fatalf("early=%v epoch %d sel %d row %d: %s vs replay %s", early, k, si, i, got[i], want[i])
							}
						}
					}
				}
			}
		})
	}
}

// indexedKV is an engine over R(K, V) holding (0,0), (1,0) and (2,1),
// with an index on V: the selections of the lock-freedom tests below
// pin V, the writes beside them maintain that index.
func indexedKV(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.NewEmpty(engine.ModeNormalForm, db.MustSchema(db.MustRelationSchema("R",
		db.Attribute{Name: "K", Kind: db.KindInt},
		db.Attribute{Name: "V", Kind: db.KindInt},
	)))
	if err := e.BuildIndex("R", "V"); err != nil {
		t.Fatal(err)
	}
	tx := db.Transaction{Label: "load", Updates: []db.Update{
		db.Insert("R", db.Tuple{db.I(0), db.I(0)}),
		db.Insert("R", db.Tuple{db.I(1), db.I(0)}),
		db.Insert("R", db.Tuple{db.I(2), db.I(1)}),
	}}
	if err := e.ApplyTransaction(&tx); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSelectEachCallbackWrites: SelectEach holds no lock across its
// callback, so a callback that applies a transaction returns, and the
// pass streams the rows of the horizon it pinned on entry — none of the
// rows its own callback inserted.
func TestSelectEachCallbackWrites(t *testing.T) {
	e := indexedKV(t)
	sel := db.Pattern{db.AnyVar("k"), db.Const(db.I(0))}
	var seen []db.Tuple
	done := make(chan error, 1)
	go func() {
		done <- e.SelectEach("R", sel, func(tu db.Tuple) {
			seen = append(seen, tu.Clone())
			tx := db.Transaction{Label: fmt.Sprintf("cb%d", len(seen)), Updates: []db.Update{
				db.Insert("R", db.Tuple{db.I(int64(10 + len(seen))), db.I(0)}),
			}}
			if err := e.ApplyTransaction(&tx); err != nil {
				t.Error(err)
			}
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("a SelectEach whose callback writes did not return: the pass holds a lock the write needs")
	}
	if len(seen) != 2 {
		t.Fatalf("the pass streamed %d tuples, want the 2 of its horizon: %v", len(seen), seen)
	}
	if all, err := e.Select("R", sel); err != nil || len(all) != 4 {
		t.Fatalf("after the pass Select finds %d tuples (err %v), want 4", len(all), err)
	}
}

// TestSelectBesideParkedCommit: with a commit hook parked inside a
// transaction's commit — the write lock held — a pinned view's Select
// and the live SelectEach still answer, the latter with the parked
// epoch, which is visible before its hook runs.
func TestSelectBesideParkedCommit(t *testing.T) {
	e := indexedKV(t)
	sel := db.Pattern{db.AnyVar("k"), db.Const(db.I(0))}
	h := e.Horizon()
	entered, release := make(chan struct{}), make(chan struct{})
	e.SetCommitHook(func(engine.CommitEvent) {
		close(entered)
		<-release
	})
	written := make(chan error, 1)
	go func() {
		tx := db.Transaction{Label: "parked", Updates: []db.Update{db.Insert("R", db.Tuple{db.I(3), db.I(0)})}}
		written <- e.ApplyTransaction(&tx)
	}()
	<-entered
	var old []db.Tuple
	var now int
	var oldErr, nowErr error
	answered := make(chan struct{})
	go func() {
		defer close(answered)
		old, oldErr = e.At(h).Select("R", sel)
		nowErr = e.SelectEach("R", sel, func(db.Tuple) { now++ })
	}()
	select {
	case <-answered:
	case <-time.After(2 * time.Second):
		close(release)
		t.Fatal("Select and SelectEach waited for a parked commit's write lock")
	}
	close(release)
	if err := <-written; err != nil {
		t.Fatal(err)
	}
	if oldErr != nil || nowErr != nil {
		t.Fatalf("Select: %v, SelectEach: %v", oldErr, nowErr)
	}
	if len(old) != 2 || now != 3 {
		t.Fatalf("the view before the commit selected %d tuples, the live pass %d: want 2 and 3", len(old), now)
	}
}

// TestAtClampsToHorizon pins At's clamping: an epoch at or below the
// horizon is pinned as asked, epoch 0 with all its initial rows, and an
// epoch beyond the horizon clamps to it.
func TestAtClampsToHorizon(t *testing.T) {
	initial, txns := mvccWorkload(t)
	e := engine.Open(engine.ModeNormalForm, initial)
	if err := e.ApplyAll(context.Background(), txns[:4]); err != nil {
		t.Fatal(err)
	}
	if got := e.At(2).AsOf(); got != 2 {
		t.Fatalf("At(2): AsOf = %d, want 2", got)
	}
	v := e.At(0)
	if got := v.AsOf(); got != 0 {
		t.Fatalf("At(0): AsOf = %d, want 0", got)
	}
	if got, want := v.NumRows(), initial.NumTuples(); got != want {
		t.Fatalf("At(0): %d rows, want the initial %d", got, want)
	}
	for _, k := range []uint64{e.Horizon() + 1, ^uint64(0)} {
		if got, want := e.At(k).AsOf(), e.Horizon(); got != want {
			t.Fatalf("beyond-horizon At(%d): AsOf = %d, want clamp to %d", k, got, want)
		}
	}
}

// TestApplyBatchReportsApplied is the satellite-2 regression: a batch
// that fails or is cancelled midway must report how many transactions
// were durably applied, and that count must be a prefix — every
// transaction below it fully visible, in both implementations.
func TestApplyBatchReportsApplied(t *testing.T) {
	schema := db.MustSchema(db.MustRelationSchema("R",
		db.Attribute{Name: "K", Kind: db.KindInt},
	))
	mkTxns := func(n int) []db.Transaction {
		txns := make([]db.Transaction, n)
		for i := range txns {
			txns[i] = db.Transaction{
				Label:   fmt.Sprintf("t%d", i),
				Updates: []db.Update{db.Insert("R", db.Tuple{db.I(int64(i))})},
			}
		}
		return txns
	}
	present := func(e engine.DB, i int) bool {
		return e.Annotation("R", db.Tuple{db.I(int64(i))}) != nil
	}

	// A failed batch is a log prefix: txns[:bad] applied, the bad
	// transaction's query before its failing one applied, nothing after —
	// and so the snapshot bytes of a reference engine that applied it.
	const bad = 40
	failing := func() []db.Transaction {
		txns := mkTxns(64)
		txns[bad].Updates = append(txns[bad].Updates, db.Insert("NoSuchRel", db.Tuple{db.I(1)}))
		return txns
	}
	one := engine.OpenEmpty(engine.ModeNormalForm, schema)
	if applied, err := one.ApplyBatch(context.Background(), failing()); err == nil || applied != bad {
		t.Fatalf("reference: applied = %d, err = %v; want %d and the bad transaction's error", applied, err, bad)
	}
	want := snapshotBytes(t, one)
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards%d/failure", shards), func(t *testing.T) {
			e := engine.OpenEmpty(engine.ModeNormalForm, schema, engine.WithShards(shards))
			applied, err := e.ApplyBatch(context.Background(), failing())
			if err == nil {
				t.Fatal("ApplyBatch with a bad transaction: err = nil")
			}
			if applied != bad {
				t.Fatalf("applied = %d, want %d (the index of the bad transaction)", applied, bad)
			}
			for i := range 64 {
				if got := present(e, i); got != (i <= bad) {
					t.Fatalf("transaction %d visible = %v, want %v", i, got, i <= bad)
				}
			}
			if got := snapshotBytes(t, e); !bytes.Equal(got, want) {
				t.Fatal("snapshot differs from the reference engine's after the failed batch")
			}
		})
		t.Run(fmt.Sprintf("shards%d/precancelled", shards), func(t *testing.T) {
			e := engine.OpenEmpty(engine.ModeNormalForm, schema, engine.WithShards(shards))
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			applied, err := e.ApplyBatch(ctx, mkTxns(32))
			if err == nil {
				t.Fatalf("ApplyBatch under cancelled context: err = nil")
			}
			for i := 0; i < applied; i++ {
				if !present(e, i) {
					t.Fatalf("applied = %d but transaction %d is not visible", applied, i)
				}
			}
		})
		t.Run(fmt.Sprintf("shards%d/midflight", shards), func(t *testing.T) {
			e := engine.OpenEmpty(engine.ModeNormalForm, schema, engine.WithShards(shards))
			txns := mkTxns(2048)
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				// Cancel as soon as some progress is visible, so the batch
				// is usually interrupted mid-flight; if it wins the race and
				// completes, the assertions below still hold.
				for e.NumRows() == 0 {
					select {
					case <-done:
						return
					default:
					}
				}
				cancel()
			}()
			applied, err := e.ApplyBatch(ctx, txns)
			close(done)
			cancel()
			if err != nil && applied == len(txns) {
				t.Fatalf("applied = len(txns) with err = %v", err)
			}
			if err == nil && applied != len(txns) {
				t.Fatalf("applied = %d with nil error, want %d", applied, len(txns))
			}
			for i := 0; i < applied; i++ {
				if !present(e, i) {
					t.Fatalf("applied = %d but transaction %d is not visible", applied, i)
				}
			}
		})
	}
}

// TestRestoreSameTupleTwice: a Restore that adds one tuple twice keeps
// the later annotation in one row, and with a hook installed its
// CommitRestore names that row once, as CommitEvent promises; the
// snapshot is that of a single add of the later annotation.
func TestRestoreSameTupleTwice(t *testing.T) {
	schema := db.MustSchema(db.MustRelationSchema("R",
		db.Attribute{Name: "K", Kind: db.KindInt},
	))
	tu := db.Tuple{db.I(1)}
	first, later := core.Var(core.TupleAnnot("a")), core.Var(core.TupleAnnot("b"))
	restore := func(anns ...*core.Expr) (*engine.Engine, []engine.CommitEvent) {
		e := engine.NewEmpty(engine.ModeNormalForm, schema)
		var events []engine.CommitEvent
		e.SetCommitHook(func(ev engine.CommitEvent) {
			ev.Rows = slices.Clone(ev.Rows)
			events = append(events, ev)
		})
		err := e.Restore(1, func(add func(rel string, t db.Tuple, ann *core.Expr) error) error {
			for _, ann := range anns {
				if err := add("R", tu, ann); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return e, events
	}
	twice, events := restore(first, later)
	if len(events) != 1 || events[0].Kind != engine.CommitRestore || len(events[0].Rows) != 1 {
		t.Fatalf("events %+v, want one CommitRestore naming one row", events)
	}
	once, _ := restore(later)
	if !bytes.Equal(snapshotBytes(t, twice), snapshotBytes(t, once)) {
		t.Fatal("adding a tuple twice saves other bytes than adding its later annotation once")
	}
}
