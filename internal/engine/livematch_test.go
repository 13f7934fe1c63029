package engine_test

import (
	"context"
	"math/rand"
	"testing"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/workload"
)

// TestLiveMatchingOracleLiveDB: with live matching the engine's scans
// coincide with the plain engine's, so the all-true valuation still
// reproduces set semantics exactly.
func TestLiveMatchingOracleLiveDB(t *testing.T) {
	r := rand.New(rand.NewSource(501))
	for trial := 0; trial < 40; trial++ {
		initial := randDB(r, 2+r.Intn(10))
		txns := randTxns(r, 1+r.Intn(3), 1+r.Intn(5))
		plain := initial.Clone()
		if err := plain.ApplyAll(txns); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []engine.Mode{engine.ModeNaive, engine.ModeNormalForm} {
			e := engine.New(mode, initial, engine.WithLiveMatching(true))
			if err := e.ApplyAll(context.Background(), txns); err != nil {
				t.Fatal(err)
			}
			if live := engine.LiveDB(e); !live.Equal(plain) {
				t.Fatalf("trial %d, %v: live-matching live DB diverges:\n%s", trial, mode, live.Diff(plain))
			}
		}
	}
}

// TestLiveMatchingDeletionPropagationStillExact: removing an input tuple
// can only remove descendants (hyperplane selections are data-
// independent), so deletion propagation stays exact under live matching.
func TestLiveMatchingDeletionPropagationStillExact(t *testing.T) {
	r := rand.New(rand.NewSource(503))
	for trial := 0; trial < 30; trial++ {
		initial := randDB(r, 3+r.Intn(8))
		txns := randTxns(r, 1+r.Intn(2), 1+r.Intn(5))
		victims := initial.Instance("R").Tuples()
		victim := victims[r.Intn(len(victims))]
		annotOf := func(rel string, tu db.Tuple) core.Annot {
			return core.TupleAnnot("t_" + tu.Key())
		}
		smaller := db.NewDatabase(initial.Schema())
		for _, tu := range victims {
			if !tu.Equal(victim) {
				_ = smaller.InsertTuple("R", tu)
			}
		}
		if err := smaller.ApplyAll(txns); err != nil {
			t.Fatal(err)
		}
		e := engine.New(engine.ModeNormalForm, initial,
			engine.WithLiveMatching(true), engine.WithInitialAnnotations(annotOf))
		if err := e.ApplyAll(context.Background(), txns); err != nil {
			t.Fatal(err)
		}
		got := engine.DeletionPropagation(e, annotOf("R", victim))
		if !got.Equal(smaller) {
			t.Fatalf("trial %d: deletion propagation diverged under live matching:\n%s", trial, got.Diff(smaller))
		}
	}
}

// TestLiveMatchingLosesAbortInformation documents the trade-off: under
// the formal semantics (default), aborting a transaction by valuation
// matches re-execution; under live matching the information needed for
// that hypothetical is not recorded and the valuation diverges. The
// scenario is the paper's own Figure 4: T1 kills the Sport bike before
// T2 discounts Sport products, so "what if T1 aborted?" requires T2's
// effect on the then-live bike — which only the formal semantics
// tracked.
func TestLiveMatchingLosesAbortInformation(t *testing.T) {
	initial := productsDB(t)
	txns := []db.Transaction{transactionT1(), transactionT2()}

	// Ground truth: re-execution without T1.
	want := initial.Clone()
	if err := want.ApplyTransaction(&txns[1]); err != nil {
		t.Fatal(err)
	}
	bike50 := db.Tuple{db.S("Kids mnt bike"), db.S("Sport"), db.I(50)}
	if !want.Instance("Products").Contains(bike50) {
		t.Fatal("setup: without T1 the Sport bike is discounted")
	}

	// Formal semantics: correct.
	formal := engine.New(engine.ModeNormalForm, initial)
	if err := formal.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	if got := engine.AbortTransactions(formal, "p"); !got.Equal(want) {
		t.Fatalf("formal semantics must answer the abortion correctly:\n%s", got.Diff(want))
	}

	// Live matching: T2 never touched the dead bike, so the abortion
	// valuation misses the discounted tuple.
	lm := engine.New(engine.ModeNormalForm, initial, engine.WithLiveMatching(true))
	if err := lm.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	got := engine.AbortTransactions(lm, "p")
	if got.Equal(want) {
		t.Fatal("expected live matching to lose the abortion information on Figure 4's scenario")
	}
	if got.Instance("Products").Contains(bike50) {
		t.Error("live matching should specifically miss the discounted bike")
	}
}

// TestLiveMatchingBoundsProvenanceGrowth: repeated updates selecting the
// same constants grow per-tuple provenance linearly under live matching,
// versus the compounding dead-version sums of the formal semantics.
func TestLiveMatchingBoundsProvenanceGrowth(t *testing.T) {
	schema := db.MustSchema(db.MustRelationSchema("W",
		db.Attribute{Name: "id", Kind: db.KindInt},
		db.Attribute{Name: "ytd", Kind: db.KindInt},
	))
	initial := db.NewDatabase(schema)
	if err := initial.InsertTuple("W", db.Tuple{db.I(1), db.I(0)}); err != nil {
		t.Fatal(err)
	}
	// n "payments": UPDATE W SET ytd = k WHERE id = 1 (key-only
	// selection, like an unpinned TPC-C payment).
	var txns []db.Transaction
	n := 14
	for k := 1; k <= n; k++ {
		txns = append(txns, db.Transaction{
			Label: labelFor(k),
			Updates: []db.Update{db.Modify("W",
				db.Pattern{db.Const(db.I(1)), db.AnyVar("y")},
				[]db.SetClause{db.Keep(), db.SetTo(db.I(int64(k)))})},
		})
	}
	formal := engine.New(engine.ModeNormalForm, initial)
	if err := formal.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	lm := engine.New(engine.ModeNormalForm, initial, engine.WithLiveMatching(true))
	if err := lm.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	if formal.ProvSize() < 10*lm.ProvSize() {
		t.Errorf("expected compounding growth under formal semantics: formal=%d live=%d",
			formal.ProvSize(), lm.ProvSize())
	}
	// Per-version annotations are linear in the number of updates, so
	// the total across the n retained versions is quadratic (the formal
	// semantics is exponential: each version re-absorbs all prior ones).
	if lm.ProvSize() > int64(4*n*n) {
		t.Errorf("live matching should stay quadratic in total: %d nodes for %d updates", lm.ProvSize(), n)
	}
	// Both still agree on the final database.
	if !engine.LiveDB(formal).Equal(engine.LiveDB(lm)) {
		t.Error("final databases diverge")
	}
}

func labelFor(k int) string {
	return "pay" + string(rune('a'+k%26)) + string(rune('a'+(k/26)%26))
}

// TestLiveMatchingMembershipIsDerived: a version stores no membership
// bit — a committed row is selectable under live matching exactly when
// its annotation is live (core.Expr.Live). Over the seeded differential
// histories, in both modes and at every epoch, Select on an
// all-variables pattern returns exactly the rows whose annotation at
// that epoch is live, in insertion order.
func TestLiveMatchingMembershipIsDerived(t *testing.T) {
	for ci, cfg := range diffConfigs() {
		initial, txns, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []engine.Mode{engine.ModeNaive, engine.ModeNormalForm} {
			e := engine.New(mode, initial, engine.WithLiveMatching(true))
			if err := e.ApplyAll(context.Background(), txns); err != nil {
				t.Fatal(err)
			}
			dead := 0
			for k := uint64(0); k <= e.MVCCStats().HorizonEpoch; k++ {
				v := e.At(k)
				for _, rel := range v.Relations() {
					var want []string
					v.EachRow(rel, func(tu db.Tuple, ann *core.Expr) {
						if ann.Live() {
							want = append(want, tu.Key())
						} else {
							dead++
						}
					})
					got, err := v.Select(rel, db.AllPattern(len(v.Schema().Relation(rel).Attrs)))
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("cfg %d, %v, epoch %d: Select returns %d rows of %s, %d are live", ci, mode, k, len(got), rel, len(want))
					}
					for i, tu := range got {
						if tu.Key() != want[i] {
							t.Fatalf("cfg %d, %v, epoch %d: Select's row %d of %s is %s, the live row there is %s", ci, mode, k, i, rel, tu.Key(), want[i])
						}
					}
				}
			}
			if dead == 0 {
				t.Fatalf("cfg %d, %v: no dead row at any epoch — the history does not exercise membership", ci, mode)
			}
		}
	}
}
