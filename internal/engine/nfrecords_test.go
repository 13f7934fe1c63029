package engine_test

import (
	"fmt"
	"testing"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
)

// recycleDB is R(k, v) with, per key k, the rows (k, "x") and (k, v)
// for each v in vs[k]; every tuple is annotated t_<k><v>.
func recycleDB(t *testing.T, vs map[int64][]string) (*engine.Engine, func(k int64, v string) *core.Expr) {
	t.Helper()
	d := db.NewDatabase(db.MustSchema(db.MustRelationSchema("R",
		db.Attribute{Name: "k", Kind: db.KindInt},
		db.Attribute{Name: "v", Kind: db.KindString},
	)))
	for k, list := range vs {
		for _, v := range append([]string{"x"}, list...) {
			if err := d.InsertTuple("R", db.Tuple{db.I(k), db.S(v)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	name := func(k int64, v string) core.Annot { return core.TupleAnnot(fmt.Sprintf("t_%d%s", k, v)) }
	e := engine.New(engine.ModeNormalForm, d, engine.WithInitialAnnotations(func(_ string, tu db.Tuple) core.Annot {
		return name(tu[0].Int(), tu[1].Str())
	}))
	return e, func(k int64, v string) *core.Expr { return core.Var(name(k, v)) }
}

// collapse is the transaction that modifies the rows of key k into
// (k, "x"): all of them, or with others only those but (k, "x").
func collapse(label string, k int64, others bool) *db.Transaction {
	v := db.AnyVar("v")
	if others {
		v = db.VarNotEq("v", db.S("x"))
	}
	return &db.Transaction{Label: label, Updates: []db.Update{
		db.Modify("R", db.Pattern{db.Const(db.I(k)), v}, []db.SetClause{db.Keep(), db.SetTo(db.S("x"))}),
	}}
}

// TestRecycledRecordsLeaveFrozenFormsAlone: the open records the writer
// hands one epoch's normal forms are handed to the next epoch's, so a
// record reused for another row with other summands must leave the
// form it served frozen exactly as committed — the same node, the same
// text, read alike at the horizon and from a view pinned before the
// reuse. Epoch 1 modifies A = (1, x) into a +M (Σ ·M p1), touching it
// last; epoch 2 touches B = (2, x) first, as a source of its own
// collapse, so B takes A's record (the free list is a stack) and fills
// it with other summands, in the fifth shape. In the second history A
// absorbs more than sumScanMax sources (its summands kept in a set), and
// B and (3, x) reuse that storage for short sums.
func TestRecycledRecordsLeaveFrozenFormsAlone(t *testing.T) {
	many := make([]string, 70)
	for i := range many {
		many[i] = fmt.Sprintf("s%02d", i)
	}
	for _, c := range []struct {
		name string
		vs   map[int64][]string
	}{
		{"short sums", map[int64][]string{1: {"y"}, 2: {"y", "z"}, 3: {"z"}}},
		{"a set, then short sums", map[int64][]string{1: many, 2: {"y", "z"}, 3: {"z"}}},
	} {
		e, tv := recycleDB(t, c.vs)
		// want is (k, "x")'s annotation after collapse(label, k, others).
		want := func(label string, k int64, others bool) *core.Expr {
			p := core.Var(core.QueryAnnot(label))
			var sum []*core.Expr
			if !others {
				sum = append(sum, tv(k, "x"))
			}
			for _, v := range c.vs[k] {
				sum = append(sum, tv(k, v))
			}
			if others {
				return core.PlusM(tv(k, "x"), core.DotM(core.Sum(sum...), p))
			}
			return core.PlusM(core.Minus(tv(k, "x"), p), core.DotM(core.Sum(sum...), p))
		}
		a := db.Tuple{db.I(1), db.S("x")}
		if err := e.ApplyTransaction(collapse("p1", 1, true)); err != nil {
			t.Fatal(err)
		}
		first := e.Annotation("R", a)
		if first != want("p1", 1, true) {
			t.Fatalf("%s: after epoch 1, %v, want %v", c.name, first, want("p1", 1, true))
		}
		text, pinned := first.String(), e.At(e.Horizon())
		for i, k := range []int64{2, 3} {
			label := fmt.Sprintf("p%d", i+2)
			if err := e.ApplyTransaction(collapse(label, k, false)); err != nil {
				t.Fatal(err)
			}
			b := db.Tuple{db.I(k), db.S("x")}
			if got := e.Annotation("R", b); got != want(label, k, false) {
				t.Fatalf("%s: (%d, x) after epoch %d: %v, want %v", c.name, k, i+2, got, want(label, k, false))
			}
			for where, got := range map[string]*core.Expr{"horizon": e.Annotation("R", a), "pinned view": pinned.Annotation("R", a)} {
				if got != first || got.String() != text {
					t.Fatalf("%s: after epoch %d the %s reads (1, x) as %v, committed as %s", c.name, i+2, where, got, text)
				}
			}
		}
		if n := e.NF("R", a); n.Kind() != core.NFBase || len(n.Sum()) != 0 || n.Base() != first {
			t.Fatalf("%s: (1, x) is not frozen: shape %v, %d summands", c.name, n.Kind(), len(n.Sum()))
		}
	}
}
