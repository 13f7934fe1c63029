package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
)

// productsDB builds the paper's Figure 1a instance with the annotations
// p1…p4 used throughout the running example.
func productsDB(t *testing.T) *db.Database {
	t.Helper()
	schema := db.MustSchema(db.MustRelationSchema("Products",
		db.Attribute{Name: "Product", Kind: db.KindString},
		db.Attribute{Name: "Category", Kind: db.KindString},
		db.Attribute{Name: "Price", Kind: db.KindInt},
	))
	d := db.NewDatabase(schema)
	for _, r := range []db.Tuple{
		{db.S("Kids mnt bike"), db.S("Sport"), db.I(120)},
		{db.S("Tennis Racket"), db.S("Sport"), db.I(70)},
		{db.S("Kids mnt bike"), db.S("Kids"), db.I(120)},
		{db.S("Children sneakers"), db.S("Fashion"), db.I(40)},
	} {
		if err := d.InsertTuple("Products", r); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// figure1Annots names the initial tuples p1…p4 as in Figure 1a.
func figure1Annots() func(rel string, t db.Tuple) core.Annot {
	return func(rel string, t db.Tuple) core.Annot {
		switch {
		case t[0] == db.S("Kids mnt bike") && t[1] == db.S("Sport"):
			return core.TupleAnnot("p1")
		case t[0] == db.S("Tennis Racket"):
			return core.TupleAnnot("p2")
		case t[0] == db.S("Kids mnt bike") && t[1] == db.S("Kids"):
			return core.TupleAnnot("p3")
		default:
			return core.TupleAnnot("p4")
		}
	}
}

// transactionT1 is Figure 2a: Kids→Sport then Sport→Bicycles for the
// Kids mnt bike.
func transactionT1() db.Transaction {
	bike := func(cat string) db.Pattern {
		return db.Pattern{db.Const(db.S("Kids mnt bike")), db.Const(db.S(cat)), db.AnyVar("c")}
	}
	return db.Transaction{Label: "p", Updates: []db.Update{
		db.Modify("Products", bike("Kids"), []db.SetClause{db.Keep(), db.SetTo(db.S("Sport")), db.Keep()}),
		db.Modify("Products", bike("Sport"), []db.SetClause{db.Keep(), db.SetTo(db.S("Bicycles")), db.Keep()}),
	}}
}

// transactionT1Prime is Figure 2b: both bike tuples straight to
// Bicycles.
func transactionT1Prime() db.Transaction {
	bike := func(cat string) db.Pattern {
		return db.Pattern{db.Const(db.S("Kids mnt bike")), db.Const(db.S(cat)), db.AnyVar("c")}
	}
	return db.Transaction{Label: "p", Updates: []db.Update{
		db.Modify("Products", bike("Kids"), []db.SetClause{db.Keep(), db.SetTo(db.S("Bicycles")), db.Keep()}),
		db.Modify("Products", bike("Sport"), []db.SetClause{db.Keep(), db.SetTo(db.S("Bicycles")), db.Keep()}),
	}}
}

// transactionT2 is Figure 2c: all Sport products priced at 50.
func transactionT2() db.Transaction {
	return db.Transaction{Label: "p'", Updates: []db.Update{
		db.Modify("Products",
			db.Pattern{db.AnyVar("a"), db.Const(db.S("Sport")), db.AnyVar("c")},
			[]db.SetClause{db.Keep(), db.Keep(), db.SetTo(db.I(50))}),
	}}
}

func annotString(t *testing.T, e *engine.Engine, rel string, tuple db.Tuple) string {
	t.Helper()
	ann := e.Annotation(rel, tuple)
	if ann == nil {
		t.Fatalf("no annotation for %v", tuple)
	}
	return ann.String()
}

// TestExample32Naive replays Example 3.2 literally on the naive engine.
func TestExample32Naive(t *testing.T) {
	e := engine.New(engine.ModeNaive, productsDB(t), engine.WithInitialAnnotations(figure1Annots()))
	t1 := transactionT1()
	if err := e.ApplyAll(context.Background(), []db.Transaction{t1}); err != nil {
		t.Fatal(err)
	}
	kids := db.Tuple{db.S("Kids mnt bike"), db.S("Kids"), db.I(120)}
	if got, want := annotString(t, e, "Products", kids), "p3 - p"; got != want {
		t.Errorf("Kids tuple: %q, want %q", got, want)
	}
	sport := db.Tuple{db.S("Kids mnt bike"), db.S("Sport"), db.I(120)}
	if got, want := annotString(t, e, "Products", sport), "(p1 +M (p3 *M p)) - p"; got != want {
		t.Errorf("Sport tuple: %q, want %q", got, want)
	}
	bic := db.Tuple{db.S("Kids mnt bike"), db.S("Bicycles"), db.I(120)}
	if got, want := annotString(t, e, "Products", bic), "0 +M ((p1 +M (p3 *M p)) *M p)"; got != want {
		t.Errorf("Bicycles tuple: %q, want %q", got, want)
	}
}

// TestExample57NormalForm replays Example 5.7 on the normal-form engine.
func TestExample57NormalForm(t *testing.T) {
	e := engine.New(engine.ModeNormalForm, productsDB(t), engine.WithInitialAnnotations(figure1Annots()))
	if err := e.ApplyAll(context.Background(), []db.Transaction{transactionT1()}); err != nil {
		t.Fatal(err)
	}
	sport := db.Tuple{db.S("Kids mnt bike"), db.S("Sport"), db.I(120)}
	if got, want := annotString(t, e, "Products", sport), "p1 - p"; got != want {
		t.Errorf("Sport tuple: %q, want %q (Rule 2)", got, want)
	}
	bic := db.Tuple{db.S("Kids mnt bike"), db.S("Bicycles"), db.I(120)}
	// Rule 7 gives 0 +M ((p1 + p3) ·M p); the zero post-processing of
	// Example 5.7 then yields (p1 + p3) ·M p.
	if got, want := annotString(t, e, "Products", bic), "0 +M ((p1 + p3) *M p)"; got != want {
		t.Errorf("Bicycles tuple: %q, want %q (Rule 7)", got, want)
	}
	if got := core.Minimize(e.Annotation("Products", bic)); got.String() != "(p1 + p3) *M p" {
		t.Errorf("minimized Bicycles tuple: %q", got)
	}
}

// TestFigure4Sequence replays the two-transaction sequence of Example
// 3.8 and checks the Figure 4 annotations on the naive engine.
func TestFigure4Sequence(t *testing.T) {
	e := engine.New(engine.ModeNaive, productsDB(t), engine.WithInitialAnnotations(figure1Annots()))
	if err := e.ApplyAll(context.Background(), []db.Transaction{transactionT1(), transactionT2()}); err != nil {
		t.Fatal(err)
	}
	racket := db.Tuple{db.S("Tennis Racket"), db.S("Sport"), db.I(50)}
	if got, want := annotString(t, e, "Products", racket), "0 +M (p2 *M p')"; got != want {
		t.Errorf("Tennis Racket: %q, want %q", got, want)
	}
	bike := db.Tuple{db.S("Kids mnt bike"), db.S("Sport"), db.I(50)}
	if got, want := annotString(t, e, "Products", bike), "0 +M (((p1 +M (p3 *M p)) - p) *M p')"; got != want {
		t.Errorf("Sport bike at 50: %q, want %q", got, want)
	}
}

// TestProposition35OnExample: the set-equivalent transactions T1 and T1'
// (Example 3.7) yield UP[X]-equivalent annotated databases, on both
// engines, decided via the canonical form.
func TestProposition35OnExample(t *testing.T) {
	for _, mode := range []engine.Mode{engine.ModeNaive, engine.ModeNormalForm} {
		e1 := engine.New(mode, productsDB(t), engine.WithInitialAnnotations(figure1Annots()))
		e2 := engine.New(mode, productsDB(t), engine.WithInitialAnnotations(figure1Annots()))
		if err := e1.ApplyAll(context.Background(), []db.Transaction{transactionT1()}); err != nil {
			t.Fatal(err)
		}
		if err := e2.ApplyAll(context.Background(), []db.Transaction{transactionT1Prime()}); err != nil {
			t.Fatal(err)
		}
		for _, tuple := range []db.Tuple{
			{db.S("Kids mnt bike"), db.S("Kids"), db.I(120)},
			{db.S("Kids mnt bike"), db.S("Sport"), db.I(120)},
			{db.S("Kids mnt bike"), db.S("Bicycles"), db.I(120)},
			{db.S("Tennis Racket"), db.S("Sport"), db.I(70)},
		} {
			a1 := core.Minimize(core.Normalize(e1.Annotation("Products", tuple)))
			a2 := core.Minimize(core.Normalize(e2.Annotation("Products", tuple)))
			if !a1.Equal(a2) {
				t.Errorf("%v (%v): T1 gives %v, T1' gives %v", mode, tuple, a1, a2)
			}
		}
	}
}

func TestLiveDBMatchesPlainOnExample(t *testing.T) {
	plain := productsDB(t)
	txns := []db.Transaction{transactionT1(), transactionT2()}
	if err := plain.ApplyAll(txns); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []engine.Mode{engine.ModeNaive, engine.ModeNormalForm} {
		e := engine.New(mode, productsDB(t))
		if err := e.ApplyAll(context.Background(), txns); err != nil {
			t.Fatal(err)
		}
		live := engine.LiveDB(e)
		if !live.Equal(plain) {
			t.Errorf("%v: live database diverges from plain engine:\n%s", mode, live.Diff(plain))
		}
		if e.SupportSize() < plain.NumTuples() {
			t.Errorf("%v: support %d smaller than plain %d", mode, e.SupportSize(), plain.NumTuples())
		}
		if e.NumRows() <= plain.NumTuples() {
			t.Errorf("%v: tombstones should make NumRows %d exceed plain %d", mode, e.NumRows(), plain.NumTuples())
		}
	}
}

// TestApplyErrors: a query against an unknown relation or of an unknown
// kind fails its transaction — pinned or not — and the failed
// transaction's epoch still commits, so the horizon does not stall
// behind it.
func TestApplyErrors(t *testing.T) {
	e := engine.New(engine.ModeNaive, productsDB(t))
	for name, u := range map[string]db.Update{
		"insert into an unknown relation":        db.Insert("Nope", db.Tuple{db.S("x")}),
		"unpinned delete on an unknown relation": db.Delete("Nope", db.Pattern{db.AnyVar("x")}),
		"pinned delete on an unknown relation":   db.Delete("Nope", db.Pattern{db.Const(db.S("x"))}),
		"unpinned modify on an unknown relation": db.Modify("Nope", db.Pattern{db.AnyVar("x")}, []db.SetClause{db.Keep()}),
		"unknown update kind":                    {Kind: db.UpdateKind(9), Rel: "Products"},
		"unknown update kind, unknown relation":  {Kind: db.UpdateKind(9), Rel: "Nope"},
		"unknown kind with a constant selection": {Kind: db.UpdateKind(9), Rel: "Products", Sel: db.Pattern{db.Const(db.S("x"))}},
	} {
		before := e.Horizon()
		tx := db.Transaction{Label: "p", Updates: []db.Update{u}}
		if err := e.ApplyTransaction(&tx); err == nil {
			t.Errorf("%s must fail", name)
		} else if u.Rel == "Nope" && u.Kind <= db.OpModify && !errors.Is(err, engine.ErrUnknownRelation) {
			t.Errorf("%s: %v is not ErrUnknownRelation", name, err)
		}
		if e.Horizon() <= before {
			t.Errorf("%s left the horizon at %#x", name, e.Horizon())
		}
	}
}

// --- randomized oracle tests -------------------------------------------

var (
	testCats = []string{"a", "b", "c"}
)

func randSchema() *db.Schema {
	return db.MustSchema(db.MustRelationSchema("R",
		db.Attribute{Name: "id", Kind: db.KindInt},
		db.Attribute{Name: "cat", Kind: db.KindString},
		db.Attribute{Name: "val", Kind: db.KindInt},
	))
}

func randTuple(r *rand.Rand) db.Tuple {
	return db.Tuple{db.I(int64(r.Intn(6))), db.S(testCats[r.Intn(len(testCats))]), db.I(int64(r.Intn(4)))}
}

func randDB(r *rand.Rand, n int) *db.Database {
	d := db.NewDatabase(randSchema())
	for i := 0; i < n; i++ {
		_ = d.InsertTuple("R", randTuple(r))
	}
	return d
}

func randTerm(r *rand.Rand, col int) db.Term {
	switch r.Intn(3) {
	case 0:
		switch col {
		case 0:
			return db.Const(db.I(int64(r.Intn(6))))
		case 1:
			return db.Const(db.S(testCats[r.Intn(len(testCats))]))
		default:
			return db.Const(db.I(int64(r.Intn(4))))
		}
	case 1:
		switch col {
		case 0:
			return db.VarNotEq(fmt.Sprintf("x%d", col), db.I(int64(r.Intn(6))))
		case 1:
			return db.VarNotEq(fmt.Sprintf("x%d", col), db.S(testCats[r.Intn(len(testCats))]))
		default:
			return db.VarNotEq(fmt.Sprintf("x%d", col), db.I(int64(r.Intn(4))))
		}
	default:
		return db.AnyVar(fmt.Sprintf("x%d", col))
	}
}

func randPattern(r *rand.Rand) db.Pattern {
	return db.Pattern{randTerm(r, 0), randTerm(r, 1), randTerm(r, 2)}
}

func randUpdate(r *rand.Rand) db.Update {
	switch r.Intn(3) {
	case 0:
		return db.Insert("R", randTuple(r))
	case 1:
		return db.Delete("R", randPattern(r))
	default:
		set := make([]db.SetClause, 3)
		changed := false
		for col := range set {
			if r.Intn(2) == 0 {
				changed = true
				switch col {
				case 0:
					set[col] = db.SetTo(db.I(int64(r.Intn(6))))
				case 1:
					set[col] = db.SetTo(db.S(testCats[r.Intn(len(testCats))]))
				default:
					set[col] = db.SetTo(db.I(int64(r.Intn(4))))
				}
			}
		}
		if !changed {
			set[2] = db.SetTo(db.I(int64(r.Intn(4))))
		}
		return db.Modify("R", randPattern(r), set)
	}
}

func randTxns(r *rand.Rand, nTxn, nOps int) []db.Transaction {
	txns := make([]db.Transaction, nTxn)
	for i := range txns {
		txns[i].Label = fmt.Sprintf("q%d", i)
		for j := 0; j < nOps; j++ {
			txns[i].Updates = append(txns[i].Updates, randUpdate(r))
		}
	}
	return txns
}

// TestOracleLiveDB is the end-to-end ground-truth test: for random
// databases and random hyperplane transactions, the all-true valuation
// of both provenance engines reproduces exactly the plain engine's set
// semantics.
func TestOracleLiveDB(t *testing.T) {
	r := rand.New(rand.NewSource(301))
	for trial := 0; trial < 60; trial++ {
		initial := randDB(r, 2+r.Intn(10))
		txns := randTxns(r, 1+r.Intn(3), 1+r.Intn(5))
		plain := initial.Clone()
		if err := plain.ApplyAll(txns); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []engine.Mode{engine.ModeNaive, engine.ModeNormalForm} {
			e := engine.New(mode, initial)
			if err := e.ApplyAll(context.Background(), txns); err != nil {
				t.Fatal(err)
			}
			live := engine.LiveDB(e)
			if !live.Equal(plain) {
				t.Fatalf("trial %d, %v: live DB diverges:\n%sTransactions: %v", trial, mode, live.Diff(plain), txns)
			}
		}
	}
}

// TestOracleDeletionPropagation: assigning false to one input tuple's
// annotation must equal re-running the transactions on the database
// without that tuple (Section 4.1), for both engines.
func TestOracleDeletionPropagation(t *testing.T) {
	r := rand.New(rand.NewSource(303))
	for trial := 0; trial < 40; trial++ {
		initial := randDB(r, 3+r.Intn(8))
		txns := randTxns(r, 1+r.Intn(2), 1+r.Intn(5))

		// Pick a victim tuple and name annotations deterministically.
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
		want := smaller
		if err := want.ApplyAll(txns); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []engine.Mode{engine.ModeNaive, engine.ModeNormalForm} {
			e := engine.New(mode, initial, engine.WithInitialAnnotations(annotOf))
			if err := e.ApplyAll(context.Background(), txns); err != nil {
				t.Fatal(err)
			}
			got := engine.DeletionPropagation(e, annotOf("R", victim))
			if !got.Equal(want) {
				t.Fatalf("trial %d, %v: deletion propagation diverges for victim %v:\n%sTransactions: %v",
					trial, mode, victim, got.Diff(want), txns)
			}
		}
	}
}

// TestOracleAbortTransaction: assigning false to a transaction label
// must equal re-running the sequence without that transaction.
func TestOracleAbortTransaction(t *testing.T) {
	r := rand.New(rand.NewSource(307))
	for trial := 0; trial < 40; trial++ {
		initial := randDB(r, 3+r.Intn(8))
		txns := randTxns(r, 2+r.Intn(2), 1+r.Intn(4))
		aborted := r.Intn(len(txns))

		want := initial.Clone()
		for i := range txns {
			if i == aborted {
				continue
			}
			if err := want.ApplyTransaction(&txns[i]); err != nil {
				t.Fatal(err)
			}
		}
		for _, mode := range []engine.Mode{engine.ModeNaive, engine.ModeNormalForm} {
			e := engine.New(mode, initial)
			if err := e.ApplyAll(context.Background(), txns); err != nil {
				t.Fatal(err)
			}
			got := engine.AbortTransactions(e, txns[aborted].Label)
			if !got.Equal(want) {
				t.Fatalf("trial %d, %v: abort of %s diverges:\n%sTransactions: %v",
					trial, mode, txns[aborted].Label, got.Diff(want), txns)
			}
		}
	}
}

// TestNaiveAndNormalFormEquivalent: the two engines produce
// UP[X]-equivalent annotations, decided canonically.
func TestNaiveAndNormalFormEquivalent(t *testing.T) {
	r := rand.New(rand.NewSource(311))
	for trial := 0; trial < 40; trial++ {
		initial := randDB(r, 2+r.Intn(8))
		txns := randTxns(r, 1+r.Intn(3), 1+r.Intn(4))
		annotOf := func(rel string, tu db.Tuple) core.Annot {
			return core.TupleAnnot("t_" + tu.Key())
		}
		naive := engine.New(engine.ModeNaive, initial, engine.WithInitialAnnotations(annotOf))
		nf := engine.New(engine.ModeNormalForm, initial, engine.WithInitialAnnotations(annotOf))
		if err := naive.ApplyAll(context.Background(), txns); err != nil {
			t.Fatal(err)
		}
		if err := nf.ApplyAll(context.Background(), txns); err != nil {
			t.Fatal(err)
		}
		naive.EachRow("R", func(tu db.Tuple, ann *core.Expr) {
			nfAnn := nf.Annotation("R", tu)
			if nfAnn == nil {
				nfAnn = core.Zero()
			}
			c1 := core.Minimize(core.Normalize(ann))
			c2 := core.Minimize(core.Normalize(nfAnn))
			if !c1.Equal(c2) {
				t.Errorf("trial %d, tuple %v:\n naive = %v\n nf    = %v", trial, tu, c1, c2)
			}
		})
	}
}

// TestIndexAblationSameResults: the hash-index access path must not
// change any annotation.
func TestIndexAblationSameResults(t *testing.T) {
	r := rand.New(rand.NewSource(313))
	for trial := 0; trial < 20; trial++ {
		initial := randDB(r, 5+r.Intn(10))
		txns := randTxns(r, 2, 4)
		plainEng := engine.New(engine.ModeNormalForm, initial)
		indexed := engine.New(engine.ModeNormalForm, initial)
		if err := indexed.BuildIndex("R", "id"); err != nil {
			t.Fatal(err)
		}
		if err := plainEng.ApplyAll(context.Background(), txns); err != nil {
			t.Fatal(err)
		}
		if err := indexed.ApplyAll(context.Background(), txns); err != nil {
			t.Fatal(err)
		}
		if plainEng.ProvSize() != indexed.ProvSize() || plainEng.NumRows() != indexed.NumRows() {
			t.Fatalf("trial %d: index changed provenance (%d vs %d nodes, %d vs %d rows)",
				trial, plainEng.ProvSize(), indexed.ProvSize(), plainEng.NumRows(), indexed.NumRows())
		}
		plainEng.EachRow("R", func(tu db.Tuple, ann *core.Expr) {
			other := indexed.Annotation("R", tu)
			if other == nil || !ann.Equal(other) {
				t.Errorf("trial %d: annotation of %v differs under index", trial, tu)
			}
		})
	}
}

func TestBuildIndexErrors(t *testing.T) {
	e := engine.New(engine.ModeNaive, productsDB(t))
	if err := e.BuildIndex("Nope", "x"); err == nil {
		t.Error("unknown relation accepted")
	}
	if err := e.BuildIndex("Products", "Nope"); err == nil {
		t.Error("unknown attribute accepted")
	}
	if err := e.BuildIndex("Products", "Category"); err != nil {
		t.Errorf("valid index rejected: %v", err)
	}
}

// TestNormalFormProvenanceSmaller: on merge-heavy workloads the normal
// form representation is strictly smaller than the naive one.
func TestNormalFormProvenanceSmaller(t *testing.T) {
	r := rand.New(rand.NewSource(317))
	initial := randDB(r, 12)
	txns := randTxns(r, 4, 6)
	naive := engine.New(engine.ModeNaive, initial)
	nf := engine.New(engine.ModeNormalForm, initial)
	if err := naive.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	if err := nf.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	if nf.ProvSize() > naive.ProvSize() {
		t.Errorf("normal form (%d) larger than naive (%d)", nf.ProvSize(), naive.ProvSize())
	}
}

// TestMinimizeAllPreservesLiveDB: the Proposition 5.5 post-processing
// must not change any tuple's membership semantics.
func TestMinimizeAllPreservesLiveDB(t *testing.T) {
	r := rand.New(rand.NewSource(319))
	initial := randDB(r, 8)
	txns := randTxns(r, 3, 4)
	e := engine.New(engine.ModeNormalForm, initial)
	if err := e.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	before := engine.LiveDB(e)
	sizeBefore := e.ProvSize()
	sizeAfter, err := e.MinimizeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sizeAfter > sizeBefore {
		t.Errorf("MinimizeAll grew provenance: %d -> %d", sizeBefore, sizeAfter)
	}
	after := engine.LiveDB(e)
	if !after.Equal(before) {
		t.Errorf("MinimizeAll changed the live database:\n%s", after.Diff(before))
	}
}

// TestCopyOnWriteAblation: disabling deep copies must not change
// annotations (structurally), only sharing.
func TestCopyOnWriteAblation(t *testing.T) {
	r := rand.New(rand.NewSource(323))
	initial := randDB(r, 8)
	txns := randTxns(r, 2, 5)
	cow := engine.New(engine.ModeNaive, initial)
	shared := engine.New(engine.ModeNaive, initial, engine.WithCopyOnWrite(false))
	if err := cow.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	if err := shared.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	if cow.ProvSize() != shared.ProvSize() {
		t.Errorf("tree sizes differ: cow=%d shared=%d", cow.ProvSize(), shared.ProvSize())
	}
	cow.EachRow("R", func(tu db.Tuple, ann *core.Expr) {
		other := shared.Annotation("R", tu)
		if other == nil || !ann.Equal(other) {
			t.Errorf("annotation of %v differs without copy-on-write", tu)
		}
	})
}

// TestEagerZeroAxiomsPreservesSemantics: the naive engine's optional
// zero-axiom application shrinks expressions without changing them
// semantically.
func TestEagerZeroAxiomsPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(329))
	initial := randDB(r, 8)
	txns := randTxns(r, 2, 5)
	raw := engine.New(engine.ModeNaive, initial)
	eager := engine.New(engine.ModeNaive, initial, engine.WithEagerZeroAxioms(true))
	if err := raw.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	if err := eager.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	if eager.ProvSize() > raw.ProvSize() {
		t.Errorf("eager zero axioms grew provenance: %d > %d", eager.ProvSize(), raw.ProvSize())
	}
	if !engine.LiveDB(eager).Equal(engine.LiveDB(raw)) {
		t.Error("eager zero axioms changed the live database")
	}
}
