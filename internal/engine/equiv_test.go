package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/upstruct"
)

// This file tests Proposition 3.5 on the engines: set-equivalent
// transaction pairs — instances of the Karabeg–Vianu rewrite rules that
// the paper's axioms mirror — yield UP[X]-equivalent annotated
// databases. Equivalence is decided canonically (Normalize + Minimize)
// where the canonical form is known to coincide, and by randomized
// evaluation in the Boolean and set structures everywhere.

// equivPair is a pair of set-equivalent transactions over the random
// test schema (id:int, cat:string, val:int).
type equivPair struct {
	name string
	a, b db.Transaction
}

func catSel(cat string) db.Pattern {
	return db.Pattern{db.AnyVar("i"), db.Const(db.S(cat)), db.AnyVar("v")}
}

func setCat(cat string) []db.SetClause {
	return []db.SetClause{db.Keep(), db.SetTo(db.S(cat)), db.Keep()}
}

func equivPairs() []equivPair {
	row := db.Tuple{db.I(1), db.S("a"), db.I(0)}
	return []equivPair{
		{
			// Example 3.3: M(u1→u2); D(u2) ≡ D(u1); D(u2).
			name: "modify-then-delete-target",
			a: db.Transaction{Label: "p", Updates: []db.Update{
				db.Modify("R", catSel("a"), setCat("b")),
				db.Delete("R", catSel("b")),
			}},
			b: db.Transaction{Label: "p", Updates: []db.Update{
				db.Delete("R", catSel("a")),
				db.Delete("R", catSel("b")),
			}},
		},
		{
			// Figure 2 / Example 3.7 generalized: chaining a→b→c equals
			// sending both a and b to c.
			name: "modify-chain",
			a: db.Transaction{Label: "p", Updates: []db.Update{
				db.Modify("R", catSel("a"), setCat("b")),
				db.Modify("R", catSel("b"), setCat("c")),
			}},
			b: db.Transaction{Label: "p", Updates: []db.Update{
				db.Modify("R", catSel("a"), setCat("c")),
				db.Modify("R", catSel("b"), setCat("c")),
			}},
		},
		{
			// Insertion is idempotent under set semantics.
			name: "double-insert",
			a: db.Transaction{Label: "p", Updates: []db.Update{
				db.Insert("R", row), db.Insert("R", row),
			}},
			b: db.Transaction{Label: "p", Updates: []db.Update{
				db.Insert("R", row),
			}},
		},
		{
			// Deletion is idempotent.
			name: "double-delete",
			a: db.Transaction{Label: "p", Updates: []db.Update{
				db.Delete("R", catSel("a")), db.Delete("R", catSel("a")),
			}},
			b: db.Transaction{Label: "p", Updates: []db.Update{
				db.Delete("R", catSel("a")),
			}},
		},
		{
			// Inserting a tuple that a later deletion selects is
			// absorbed by the deletion.
			name: "insert-then-delete",
			a: db.Transaction{Label: "p", Updates: []db.Update{
				db.Insert("R", row),
				db.Delete("R", catSel("a")),
			}},
			b: db.Transaction{Label: "p", Updates: []db.Update{
				db.Delete("R", catSel("a")),
			}},
		},
		{
			// Modifying into a value and then modifying that value again
			// within the transaction factorizes (axiom 3 / rules 6–7).
			name: "modify-then-remodify-target",
			a: db.Transaction{Label: "p", Updates: []db.Update{
				db.Modify("R", catSel("a"), setCat("b")),
				db.Modify("R", catSel("c"), setCat("b")),
			}},
			b: db.Transaction{Label: "p", Updates: []db.Update{
				db.Modify("R", catSel("c"), setCat("b")),
				db.Modify("R", catSel("a"), setCat("b")),
			}},
		},
		{
			// Deleting and then inserting a tuple of the deleted class
			// equals deleting the rest and inserting (axiom 10 shape).
			name: "delete-then-insert",
			a: db.Transaction{Label: "p", Updates: []db.Update{
				db.Delete("R", db.ConstPattern(row)),
				db.Insert("R", row),
			}},
			b: db.Transaction{Label: "p", Updates: []db.Update{
				db.Insert("R", row),
			}},
		},
	}
}

// annotEnvBool builds a random-but-consistent Boolean valuation.
func annotEnvBool(r *rand.Rand) upstruct.Env[bool] {
	m := make(map[core.Annot]bool)
	return func(a core.Annot) bool {
		v, ok := m[a]
		if !ok {
			v = r.Intn(2) == 0
			m[a] = v
		}
		return v
	}
}

func annotEnvSet(r *rand.Rand) upstruct.Env[upstruct.Set] {
	universe := []string{"IL", "FR", "US"}
	m := make(map[core.Annot]upstruct.Set)
	return func(a core.Annot) upstruct.Set {
		v, ok := m[a]
		if !ok {
			var elems []string
			for _, c := range universe {
				if r.Intn(2) == 0 {
					elems = append(elems, c)
				}
			}
			v = upstruct.NewSet(elems...)
			m[a] = v
		}
		return v
	}
}

func TestProposition35OnRewritePairs(t *testing.T) {
	r := rand.New(rand.NewSource(401))
	pairs := equivPairs()
	for trial := 0; trial < 25; trial++ {
		initial := randDB(r, 3+r.Intn(8))
		annotOf := func(rel string, tu db.Tuple) core.Annot {
			return core.TupleAnnot("t_" + tu.Key())
		}
		for _, pair := range pairs {
			for _, mode := range []engine.Mode{engine.ModeNaive, engine.ModeNormalForm} {
				e1 := engine.New(mode, initial, engine.WithInitialAnnotations(annotOf))
				e2 := engine.New(mode, initial, engine.WithInitialAnnotations(annotOf))
				if err := e1.ApplyTransaction(&pair.a); err != nil {
					t.Fatal(err)
				}
				if err := e2.ApplyTransaction(&pair.b); err != nil {
					t.Fatal(err)
				}
				// Set-equivalence sanity: same live database.
				l1, l2 := engine.LiveDB(e1), engine.LiveDB(e2)
				if !l1.Equal(l2) {
					t.Fatalf("%s (%v): pair is not even set-equivalent:\n%s", pair.name, mode, l1.Diff(l2))
				}
				// UP[X]-equivalence of every tuple's annotation, by
				// randomized evaluation.
				checkAnnotEquiv(t, r, e1, e2, pair.name, mode)
			}
		}
	}
}

func checkAnnotEquiv(t *testing.T, r *rand.Rand, e1, e2 *engine.Engine, name string, mode engine.Mode) {
	t.Helper()
	seen := make(map[string]db.Tuple)
	collect := func(e *engine.Engine) {
		e.EachRow("R", func(tu db.Tuple, _ *core.Expr) { seen[tu.Key()] = tu.Clone() })
	}
	collect(e1)
	collect(e2)
	for _, tu := range seen {
		a1 := e1.Annotation("R", tu)
		a2 := e2.Annotation("R", tu)
		if a1 == nil {
			a1 = core.Zero()
		}
		if a2 == nil {
			a2 = core.Zero()
		}
		for i := 0; i < 12; i++ {
			env := annotEnvBool(r)
			if upstruct.Eval(a1, upstruct.Bool, env) != upstruct.Eval(a2, upstruct.Bool, env) {
				t.Fatalf("%s (%v): Boolean divergence on %v:\n  a = %v\n  b = %v", name, mode, tu, a1, a2)
			}
			senv := annotEnvSet(r)
			if !upstruct.Eval(a1, upstruct.Sets, senv).Equal(upstruct.Eval(a2, upstruct.Sets, senv)) {
				t.Fatalf("%s (%v): set divergence on %v:\n  a = %v\n  b = %v", name, mode, tu, a1, a2)
			}
		}
	}
}

// TestProposition35Canonical: on the pairs where the canonical form is
// complete (the modify/delete rewrites of Examples 3.3 and 3.7), the
// minimized normal forms coincide structurally.
func TestProposition35Canonical(t *testing.T) {
	r := rand.New(rand.NewSource(403))
	canonicalPairs := equivPairs()[:2]
	for trial := 0; trial < 25; trial++ {
		initial := randDB(r, 3+r.Intn(8))
		annotOf := func(rel string, tu db.Tuple) core.Annot {
			return core.TupleAnnot("t_" + tu.Key())
		}
		for _, pair := range canonicalPairs {
			e1 := engine.New(engine.ModeNormalForm, initial, engine.WithInitialAnnotations(annotOf))
			e2 := engine.New(engine.ModeNormalForm, initial, engine.WithInitialAnnotations(annotOf))
			if err := e1.ApplyTransaction(&pair.a); err != nil {
				t.Fatal(err)
			}
			if err := e2.ApplyTransaction(&pair.b); err != nil {
				t.Fatal(err)
			}
			e1.EachRow("R", func(tu db.Tuple, ann *core.Expr) {
				other := e2.Annotation("R", tu)
				if other == nil {
					other = core.Zero()
				}
				c1 := core.Minimize(core.Normalize(ann))
				c2 := core.Minimize(core.Normalize(other))
				if !c1.Equal(c2) {
					t.Errorf("%s, trial %d, tuple %v:\n  a = %v\n  b = %v", pair.name, trial, tu, c1, c2)
				}
			})
		}
	}
}

// TestNonEquivalentPairsDiverge guards the "only if" direction on a
// sample: transactions that are NOT set-equivalent must yield
// provenance that differs under some valuation.
func TestNonEquivalentPairsDiverge(t *testing.T) {
	initial := db.NewDatabase(randSchema())
	if err := initial.InsertTuple("R", db.Tuple{db.I(1), db.S("a"), db.I(0)}); err != nil {
		t.Fatal(err)
	}
	del := db.Transaction{Label: "p", Updates: []db.Update{db.Delete("R", catSel("a"))}}
	noop := db.Transaction{Label: "p"}
	e1 := engine.New(engine.ModeNormalForm, initial)
	e2 := engine.New(engine.ModeNormalForm, initial)
	if err := e1.ApplyTransaction(&del); err != nil {
		t.Fatal(err)
	}
	if err := e2.ApplyTransaction(&noop); err != nil {
		t.Fatal(err)
	}
	tu := db.Tuple{db.I(1), db.S("a"), db.I(0)}
	a1 := e1.Annotation("R", tu)
	a2 := e2.Annotation("R", tu)
	allTrue := func(core.Annot) bool { return true }
	if upstruct.Eval(a1, upstruct.Bool, allTrue) == upstruct.Eval(a2, upstruct.Bool, allTrue) {
		t.Error("deleting and doing nothing must be distinguishable")
	}
}

// TestSequenceEquivalenceAcrossTransactions replays Example 3.9: the
// sequences (T1, T2) and (T1', T2) give equivalent provenance even
// though the equivalent rewrite happened in an earlier transaction.
func TestSequenceEquivalenceAcrossTransactions(t *testing.T) {
	r := rand.New(rand.NewSource(407))
	t2 := db.Transaction{Label: "pp", Updates: []db.Update{
		db.Modify("R", catSel("c"), []db.SetClause{db.Keep(), db.Keep(), db.SetTo(db.I(50))}),
	}}
	for trial := 0; trial < 20; trial++ {
		initial := randDB(r, 3+r.Intn(8))
		pair := equivPairs()[1] // the modify-chain pair
		for _, mode := range []engine.Mode{engine.ModeNaive, engine.ModeNormalForm} {
			e1 := engine.New(mode, initial)
			e2 := engine.New(mode, initial)
			if err := e1.ApplyAll(context.Background(), []db.Transaction{pair.a, t2}); err != nil {
				t.Fatal(err)
			}
			if err := e2.ApplyAll(context.Background(), []db.Transaction{pair.b, t2}); err != nil {
				t.Fatal(err)
			}
			if !engine.LiveDB(e1).Equal(engine.LiveDB(e2)) {
				t.Fatalf("trial %d (%v): sequences not set-equivalent", trial, mode)
			}
			checkAnnotEquiv(t, r, e1, e2, fmt.Sprintf("sequence trial %d", trial), mode)
		}
	}
}
