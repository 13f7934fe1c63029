package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/upstruct"
	"hyperprov/internal/workload"
)

// visit identifies one streamed row.
type visit struct {
	rel string
	key string
}

func workloadEngine(t *testing.T, mode engine.Mode) (*engine.Engine, []db.Transaction) {
	t.Helper()
	cfg := workload.Default(0.002)
	cfg.QueriesPerTxn = 5
	initial, txns, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return engine.New(mode, initial), txns
}

func specializeOrder(e *engine.Engine) []visit {
	var seq []visit
	engine.Specialize[bool](e, upstruct.Bool, func(core.Annot) bool { return true },
		func(rel string, tp db.Tuple, v bool) {
			seq = append(seq, visit{rel: rel, key: tp.Key()})
		})
	return seq
}

// TestSpecializeDeterministicOrder asserts that the serial and parallel
// provenance-usage paths stream rows of each relation in the same,
// deterministic sequence: insertion order by row position, never map
// order. Specialize used to iterate the rows map, so the serial and
// parallel paths disagreed and reruns shuffled the Σ summand order.
func TestSpecializeDeterministicOrder(t *testing.T) {
	for _, mode := range []engine.Mode{engine.ModeNaive, engine.ModeNormalForm} {
		t.Run(mode.String(), func(t *testing.T) {
			e, txns := workloadEngine(t, mode)
			if err := e.ApplyAll(context.Background(), txns); err != nil {
				t.Fatal(err)
			}

			serial := specializeOrder(e)
			if len(serial) != e.NumRows() {
				t.Fatalf("Specialize visited %d rows, engine stores %d", len(serial), e.NumRows())
			}
			if again := specializeOrder(e); !equalVisits(serial, again) {
				t.Fatal("two Specialize passes visited rows in different orders")
			}

			// EachRow must agree with Specialize relation by relation.
			var each []visit
			for _, rel := range e.Relations() {
				e.EachRow(rel, func(tp db.Tuple, ann *core.Expr) {
					each = append(each, visit{rel: rel, key: tp.Key()})
				})
			}
			if !equalVisits(filterRel(serial, e.Relations()), each) {
				t.Fatal("EachRow and Specialize disagree on row order")
			}

			// The parallel path chunks the positions in order; with the visit
			// sequence recorded under a mutex and the per-chunk
			// subsequences stitched back by position, every relation must
			// see exactly the serial sequence. Chunks interleave, so we
			// compare positions, not arrival order: each worker records
			// (index within relation) → row, which must match serial.
			perRel := make(map[string][]visit)
			for _, v := range serial {
				perRel[v.rel] = append(perRel[v.rel], v)
			}
			var mu sync.Mutex
			got := make(map[string]map[string]int) // rel → key → count
			var parSeq []visit
			if err := engine.SpecializeParallel[bool](context.Background(), e, upstruct.Bool,
				func(core.Annot) bool { return true }, 4,
				func(rel string, tp db.Tuple, v bool) {
					mu.Lock()
					defer mu.Unlock()
					if got[rel] == nil {
						got[rel] = make(map[string]int)
					}
					got[rel][tp.Key()]++
					parSeq = append(parSeq, visit{rel: rel, key: tp.Key()})
				}); err != nil {
				t.Fatal(err)
			}
			if len(parSeq) != len(serial) {
				t.Fatalf("parallel visited %d rows, serial %d", len(parSeq), len(serial))
			}
			for rel, rows := range perRel {
				for _, v := range rows {
					if got[rel][v.key] != 1 {
						t.Fatalf("parallel visited %s/%s %d times, want exactly once", rel, v.key, got[rel][v.key])
					}
				}
			}

			// With a single worker the parallel entry point takes the
			// serial path and the sequences must be identical, not just
			// equal as sets.
			var oneWorker []visit
			if err := engine.SpecializeParallel[bool](context.Background(), e, upstruct.Bool,
				func(core.Annot) bool { return true }, 1,
				func(rel string, tp db.Tuple, v bool) {
					oneWorker = append(oneWorker, visit{rel: rel, key: tp.Key()})
				}); err != nil {
				t.Fatal(err)
			}
			if !equalVisits(serial, oneWorker) {
				t.Fatal("SpecializeParallel(workers=1) and Specialize visit different sequences")
			}
		})
	}
}

func equalVisits(a, b []visit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// filterRel reorders a schema-ordered visit sequence to the relation
// order used by the comparison loop (they coincide here, but keep the
// comparison honest if relation order ever changes).
func filterRel(seq []visit, rels []string) []visit {
	var out []visit
	for _, rel := range rels {
		for _, v := range seq {
			if v.rel == rel {
				out = append(out, v)
			}
		}
	}
	return out
}

// TestConcurrentReadersDuringIngestion hammers the read surface —
// Annotation, EachRow, BoolRestrictParallel, NumRows/ProvSize — while
// ApplyAll ingests the transaction log on another goroutine. Run with
// -race; the lock-free reads must observe the surface with transaction
// granularity. Afterwards the engine state must match a
// reference engine that ingested the same log serially.
func TestConcurrentReadersDuringIngestion(t *testing.T) {
	for _, mode := range []engine.Mode{engine.ModeNaive, engine.ModeNormalForm} {
		t.Run(mode.String(), func(t *testing.T) {
			e, txns := workloadEngine(t, mode)

			// A probe tuple known to exist: any tuple of the initial DB.
			var probe db.Tuple
			e.EachRow("R", func(tp db.Tuple, ann *core.Expr) {
				if probe == nil {
					probe = tp.Clone() // EachRow lends tp
				}
			})
			if probe == nil {
				t.Fatal("no probe tuple")
			}

			done := make(chan struct{})
			var wg sync.WaitGroup
			reader := func(f func()) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
							f()
						}
					}
				}()
			}
			allTrue := func(core.Annot) bool { return true }
			reader(func() {
				if ann := e.Annotation("R", probe); ann == nil {
					t.Error("probe tuple lost its annotation")
				}
			})
			reader(func() {
				n := 0
				e.EachRow("R", func(db.Tuple, *core.Expr) { n++ })
				if n == 0 {
					t.Error("EachRow saw an empty relation")
				}
			})
			reader(func() {
				d, err := engine.BoolRestrictParallel(context.Background(), e, allTrue, 4)
				if err != nil {
					t.Error(err)
					return
				}
				if d.NumTuples() == 0 {
					t.Error("live database empty mid-ingestion")
				}
			})
			reader(func() {
				_ = e.NumRows()
				_ = e.ProvSize()
				_ = e.SupportSize()
			})

			if err := e.ApplyAll(context.Background(), txns); err != nil {
				t.Fatal(err)
			}
			close(done)
			wg.Wait()

			// Equivalence with serial ingestion.
			ref, refTxns := workloadEngine(t, mode)
			if err := ref.ApplyAll(context.Background(), refTxns); err != nil {
				t.Fatal(err)
			}
			got := engine.LiveDB(e)
			want := engine.LiveDB(ref)
			if !got.Equal(want) {
				t.Fatalf("live DB after concurrent ingestion differs from serial reference:\n%s", got.Diff(want))
			}
			if g, w := e.ProvSize(), ref.ProvSize(); g != w {
				t.Fatalf("provenance size %d after concurrent ingestion, want %d", g, w)
			}
		})
	}
}

// TestConcurrentApplyTransaction (run under -race): eight goroutines
// call ApplyTransaction on one engine while a hook records every event.
// Whatever order the engine serialized them in, it must be an order:
// events 1…K each exactly once and in sequence, every table list in
// creation-epoch order, and — the transactions conflict on purpose, so
// no other order reproduces it — the view at every epoch k equal to a
// serial replay of the first k labels in event order, annotation
// pointers included, down to the final snapshot bytes.
func TestConcurrentApplyTransaction(t *testing.T) {
	schema := db.MustSchema(db.MustRelationSchema("R",
		db.Attribute{Name: "K", Kind: db.KindInt},
		db.Attribute{Name: "V", Kind: db.KindInt},
	))
	kv := func(k, v int) db.Tuple { return db.Tuple{db.I(int64(k)), db.I(int64(v))} }
	initial := db.NewDatabase(schema)
	for k := 0; k < 24; k += 2 {
		if err := initial.InsertTuple("R", kv(k, k%5)); err != nil {
			t.Fatal(err)
		}
	}
	const writers, perWriter = 8, 30
	byLabel := make(map[string]*db.Transaction)
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			k := (w*7 + i*3) % 24
			label := fmt.Sprintf("w%d.%d", w, i)
			byLabel[label] = &db.Transaction{Label: label, Updates: []db.Update{
				db.Insert("R", kv(k, i%5)),
				db.Modify("R", db.Pattern{db.AnyVar("k"), db.Const(db.I(int64((i + 1) % 5)))},
					[]db.SetClause{db.Keep(), db.SetTo(db.I(int64(w % 5)))}),
				db.Delete("R", db.ConstPattern(kv((k+5)%24, w%5))),
				db.Delete("R", db.Pattern{db.Const(db.I(int64((k + 11) % 24))), db.AnyVar("v")}),
			}}
		}
	}
	replay := func(labels []string, each func(k int, e *engine.Engine)) *engine.Engine {
		e := engine.New(engine.ModeNormalForm, initial)
		for k, label := range labels {
			if err := e.ApplyTransaction(byLabel[label]); err != nil {
				t.Fatal(err)
			}
			if each != nil {
				each(k+1, e)
			}
		}
		return e
	}

	t.Run("shards=1", func(t *testing.T) {
		e := engine.New(engine.ModeNormalForm, initial)
		var epochs []uint64
		var labels []string
		// The engine emits each event under its write lock, one at a
		// time, so the hook needs no lock of its own.
		e.SetCommitHook(func(ev engine.CommitEvent) {
			epochs = append(epochs, ev.Epoch)
			labels = append(labels, ev.Label)
		})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					if err := e.ApplyTransaction(byLabel[fmt.Sprintf("w%d.%d", w, i)]); err != nil {
						t.Error(err)
					}
				}
			}(w)
		}
		wg.Wait()

		if len(epochs) != writers*perWriter {
			t.Fatalf("%d events for %d transactions", len(epochs), writers*perWriter)
		}
		heard := make(map[string]bool)
		for i, epoch := range epochs {
			if epoch != uint64(i+1) {
				t.Fatalf("event %d announces epoch %d", i+1, epoch)
			}
			if byLabel[labels[i]] == nil || heard[labels[i]] {
				t.Fatalf("event %d carries label %q a second time, or one never applied", i+1, labels[i])
			}
			heard[labels[i]] = true
		}
		if where := engine.ListsOutOfCreationOrder(e); where != "" {
			t.Fatalf("a table list is out of creation order: %s", where)
		}

		serial := replay(labels, func(k int, serial *engine.Engine) {
			at := e.At(uint64(k))
			if got, want := at.NumRows(), serial.NumRows(); got != want {
				t.Fatalf("epoch %d: %d rows, serial replay %d", k, got, want)
			}
			want, got := streamRows(serial), streamRows(at)
			diffStreams(t, fmt.Sprintf("epoch %d", k), want, got)
			diffPointers(t, fmt.Sprintf("epoch %d", k), want, got)
		})
		if !bytes.Equal(snapshotOf(t, e), snapshotOf(t, serial)) {
			t.Fatal("final snapshot differs from the serial replay")
		}
	})
}
