package core_test

import (
	"math/rand"
	"testing"

	"hyperprov/internal/core"
	"hyperprov/internal/upstruct"
)

// evalEquiv reports whether two expressions evaluate identically under
// the Boolean and the set structure for the given number of random
// valuations. It is a sound (no false negatives) randomized check of
// UP[X]-equivalence used throughout the tests.
func evalEquiv(t *testing.T, r *rand.Rand, e1, e2 *core.Expr, trials int) bool {
	t.Helper()
	for i := 0; i < trials; i++ {
		env := randBoolEnv(r)
		if upstruct.Eval(e1, upstruct.Bool, env) != upstruct.Eval(e2, upstruct.Bool, env) {
			t.Logf("bool divergence:\n  e1 = %v\n  e2 = %v", e1, e2)
			return false
		}
		senv := randSetEnv(r)
		if !upstruct.Eval(e1, upstruct.Sets, senv).Equal(upstruct.Eval(e2, upstruct.Sets, senv)) {
			t.Logf("set divergence:\n  e1 = %v\n  e2 = %v", e1, e2)
			return false
		}
	}
	return true
}

func TestNFInsertOverrides(t *testing.T) {
	p := core.QueryAnnot("p")
	r := rand.New(rand.NewSource(1))
	// Whatever happened before in this transaction, inserting yields a +I p.
	build := []func(n *core.NF){
		func(n *core.NF) {},
		func(n *core.NF) { n.Delete(p) },
		func(n *core.NF) { n.Insert(p) },
		func(n *core.NF) { n.AbsorbMod([]*core.Expr{tv("b")}, false, p) },
		func(n *core.NF) { n.Delete(p); n.AbsorbMod([]*core.Expr{tv("b")}, false, p) },
	}
	for i, setup := range build {
		n := core.NewNF(tv("a"))
		setup(n)
		before := n.ToExpr()
		n.Insert(p)
		want := core.PlusI(tv("a"), core.Var(p))
		if !n.ToExpr().Equal(want) {
			t.Errorf("case %d: after insert got %v, want %v", i, n.ToExpr(), want)
		}
		// Rule 1 must be equivalence-preserving: before +I p ≡ after.
		if !evalEquiv(t, r, core.PlusI(before, core.Var(p)), n.ToExpr(), 16) {
			t.Errorf("case %d: rule 1 not equivalence preserving", i)
		}
	}
}

func TestNFDeleteOverrides(t *testing.T) {
	p := core.QueryAnnot("p")
	r := rand.New(rand.NewSource(2))
	build := []func(n *core.NF){
		func(n *core.NF) {},
		func(n *core.NF) { n.Delete(p) },
		func(n *core.NF) { n.Insert(p) },
		func(n *core.NF) { n.AbsorbMod([]*core.Expr{tv("b")}, false, p) },
		func(n *core.NF) { n.Delete(p); n.AbsorbMod([]*core.Expr{tv("b")}, false, p) },
	}
	for i, setup := range build {
		n := core.NewNF(tv("a"))
		setup(n)
		before := n.ToExpr()
		n.Delete(p)
		want := core.Minus(tv("a"), core.Var(p))
		if !n.ToExpr().Equal(want) {
			t.Errorf("case %d: after delete got %v, want %v", i, n.ToExpr(), want)
		}
		if !evalEquiv(t, r, core.Minus(before, core.Var(p)), n.ToExpr(), 16) {
			t.Errorf("case %d: rule 2 not equivalence preserving", i)
		}
	}
}

func TestNFModTransitions(t *testing.T) {
	p := core.QueryAnnot("p")
	r := rand.New(rand.NewSource(3))
	contrib := []*core.Expr{tv("b0"), tv("b1")}
	type tc struct {
		name     string
		setup    func(n *core.NF)
		inserted bool
		wantKind core.NFKind
	}
	cases := []tc{
		{"base", func(n *core.NF) {}, false, core.NFMod},
		{"minus", func(n *core.NF) { n.Delete(p) }, false, core.NFMinusMod},
		{"plusI stays", func(n *core.NF) { n.Insert(p) }, false, core.NFPlusI},
		{"mod merges", func(n *core.NF) { n.AbsorbMod([]*core.Expr{tv("c")}, false, p) }, false, core.NFMod},
		{"minusmod merges", func(n *core.NF) {
			n.Delete(p)
			n.AbsorbMod([]*core.Expr{tv("c")}, false, p)
		}, false, core.NFMinusMod},
		{"inserted source wins", func(n *core.NF) {}, true, core.NFPlusI},
		{"inserted over minus", func(n *core.NF) { n.Delete(p) }, true, core.NFPlusI},
		{"inserted over mod", func(n *core.NF) { n.AbsorbMod([]*core.Expr{tv("c")}, false, p) }, true, core.NFPlusI},
	}
	for _, c := range cases {
		n := core.NewNF(tv("a"))
		c.setup(n)
		before := n.ToExpr()
		n.AbsorbMod(contrib, c.inserted, p)
		if n.Kind() != c.wantKind {
			t.Errorf("%s: kind = %v, want %v", c.name, n.Kind(), c.wantKind)
		}
		// The raw (unnormalized) application per Section 3.1.
		var raw *core.Expr
		if c.inserted {
			// An inserted source contributes its pre-insert annotation
			// behind a +I p; use a fresh base to stand for it.
			raw = core.PlusM(before, core.DotM(core.Sum(core.PlusI(tv("src"), core.Var(p))), core.Var(p)))
		} else {
			raw = core.PlusM(before, core.DotM(core.Sum(contrib...), core.Var(p)))
		}
		if !evalEquiv(t, r, raw, n.ToExpr(), 24) {
			t.Errorf("%s: AbsorbMod not equivalence preserving\n raw=%v\n nf=%v", c.name, raw, n.ToExpr())
		}
	}
}

func TestNFModEmptyContribNoEffect(t *testing.T) {
	p := core.QueryAnnot("p")
	n := core.NewNF(tv("a"))
	n.AbsorbMod(nil, false, p)
	if n.Kind() != core.NFBase || !n.ToExpr().Equal(tv("a")) {
		t.Errorf("rule 3: empty contribution must leave the form unchanged, got %v", n.ToExpr())
	}
}

func TestNFSumDedup(t *testing.T) {
	p := core.QueryAnnot("p")
	n := core.NewNF(core.Zero())
	n.AbsorbMod([]*core.Expr{tv("b"), tv("b")}, false, p)
	n.AbsorbMod([]*core.Expr{tv("b"), tv("c")}, false, p)
	if got := len(n.Sum()); got != 2 {
		t.Errorf("sum must be deduplicated: got %d summands (%v)", got, n.ToExpr())
	}
}

func TestNFZeroContributionsSkipped(t *testing.T) {
	p := core.QueryAnnot("p")
	n := core.NewNF(tv("a"))
	n.AbsorbMod([]*core.Expr{core.Zero(), tv("b")}, false, p)
	if got := len(n.Sum()); got != 1 {
		t.Errorf("zero summands must be dropped: %v", n.ToExpr())
	}
}

func TestNFSizeMatchesToExpr(t *testing.T) {
	p := core.QueryAnnot("p")
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		n := core.NewNF(randExpr(r, 3))
		for i := 0; i < r.Intn(6); i++ {
			switch r.Intn(3) {
			case 0:
				n.Insert(p)
			case 1:
				n.Delete(p)
			default:
				var contrib []*core.Expr
				for j := 0; j < 1+r.Intn(3); j++ {
					contrib = append(contrib, randExpr(r, 2))
				}
				n.AbsorbMod(contrib, r.Intn(8) == 0, p)
			}
		}
		if got, want := n.Size(), n.ToExpr().Size(); got != want {
			t.Fatalf("NF.Size = %d, ToExpr().Size = %d for %v", got, want, n.ToExpr())
		}
	}
}

func TestNFFreezeAndNextTransaction(t *testing.T) {
	p := core.QueryAnnot("p")
	p2 := core.QueryAnnot("p'")
	n := core.NewNF(tv("p1"))
	n.AbsorbMod([]*core.Expr{tv("p3")}, false, p)
	n.Freeze()
	if n.Kind() != core.NFBase {
		t.Fatalf("Freeze must reset to NFBase, got %v", n.Kind())
	}
	n.Delete(p2)
	want := "(p1 +M (p3 *M p)) - p'"
	if got := n.ToExpr().String(); got != want {
		t.Errorf("after second transaction: %q, want %q", got, want)
	}
}

func TestNFPanicsOnMixedAnnotationsWithoutFreeze(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("updating an NF under a second annotation without Freeze must panic")
		}
	}()
	n := core.NewNF(tv("a"))
	n.Delete(core.QueryAnnot("p"))
	n.Delete(core.QueryAnnot("p'"))
}

func TestNFClone(t *testing.T) {
	p := core.QueryAnnot("p")
	n := core.NewNF(tv("a"))
	n.AbsorbMod([]*core.Expr{tv("b")}, false, p)
	c := n.Clone()
	c.AbsorbMod([]*core.Expr{tv("c")}, false, p)
	if len(n.Sum()) != 1 || len(c.Sum()) != 2 {
		t.Errorf("Clone must be independent: n=%v c=%v", n.ToExpr(), c.ToExpr())
	}
}

func TestEvalNFMatchesEvalToExpr(t *testing.T) {
	p := core.QueryAnnot("p")
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := core.NewNF(randExpr(r, 3))
		for i := 0; i < r.Intn(5); i++ {
			switch r.Intn(3) {
			case 0:
				n.Insert(p)
			case 1:
				n.Delete(p)
			default:
				n.AbsorbMod([]*core.Expr{randExpr(r, 2)}, false, p)
			}
		}
		env := randBoolEnv(r)
		if upstruct.EvalNF(n, upstruct.Bool, env) != upstruct.Eval(n.ToExpr(), upstruct.Bool, env) {
			t.Fatalf("EvalNF diverges from Eval(ToExpr) for %v", n.ToExpr())
		}
	}
}

// TestNFLiveByShape: a normal form's membership is Expr.Live of its base
// in shape NFBase and, in the open transaction, a function of the shape
// alone — in after an insertion or a modification, out after a deletion
// — over a zero, a live and a dead base. With a live summand it is
// ToExpr().Live(), before and after Freeze; over dead summands only the
// shape speaks (the engine's live matching never feeds a modification a
// dead source).
func TestNFLiveByShape(t *testing.T) {
	p, q := core.QueryAnnot("p-live"), core.QueryAnnot("q-live")
	live, dead := tv("live-b"), core.Minus(tv("live-b"), core.Var(q))
	for _, base := range []*core.Expr{core.Zero(), tv("live-a"), core.Minus(tv("live-a"), core.Var(q))} {
		for _, c := range []struct {
			kind  core.NFKind
			steps func(n *core.NF)
			want  bool
		}{
			{core.NFBase, func(*core.NF) {}, base.Live()},
			{core.NFPlusI, func(n *core.NF) { n.Insert(p) }, true},
			{core.NFMinus, func(n *core.NF) { n.Delete(p) }, false},
			{core.NFMod, func(n *core.NF) { n.AbsorbMod([]*core.Expr{live}, false, p) }, true},
			{core.NFMinusMod, func(n *core.NF) { n.Delete(p); n.AbsorbMod([]*core.Expr{live}, false, p) }, true},
		} {
			n := core.NewNF(base)
			c.steps(n)
			if n.Kind() != c.kind || n.Live() != c.want || n.ToExpr().Live() != c.want {
				t.Fatalf("base %v, shape %v: Live() = %v, ToExpr().Live() = %v, want %v", base, n.Kind(), n.Live(), n.ToExpr().Live(), c.want)
			}
			if n.Freeze(); n.Live() != c.want {
				t.Fatalf("base %v, shape %v frozen: Live() = %v, want %v", base, c.kind, n.Live(), c.want)
			}
		}
		n := core.NewNF(base)
		n.AbsorbMod([]*core.Expr{dead}, false, p)
		if !n.Live() || n.ToExpr().Live() != base.Live() {
			t.Fatalf("base %v over a dead summand: Live() = %v, ToExpr().Live() = %v; want the shape's true and the base's %v", base, n.Live(), n.ToExpr().Live(), base.Live())
		}
	}
}
