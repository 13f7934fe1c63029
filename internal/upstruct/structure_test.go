package upstruct_test

import (
	"math"
	"math/rand"
	"testing"

	"hyperprov/internal/core"
	"hyperprov/internal/upstruct"
)

func boolEq(a, b bool) bool { return a == b }

var boolSamples = []bool{false, true}

var setSamples = []upstruct.Set{
	upstruct.NewSet(),
	upstruct.NewSet("IL"),
	upstruct.NewSet("FR"),
	upstruct.NewSet("IL", "FR"),
	upstruct.NewSet("IL", "US"),
	upstruct.NewSet("IL", "FR", "US"),
}

func setEq(a, b upstruct.Set) bool { return a.Equal(b) }

// TestBoolStructureAxioms is exhaustive over the Boolean domain, so it
// constitutes a proof that the deletion-propagation semantics of
// Section 4.1 is an Update-Structure.
func TestBoolStructureAxioms(t *testing.T) {
	for _, v := range upstruct.CheckAxioms[bool](upstruct.Bool, boolEq, boolSamples) {
		t.Error(v)
	}
}

func TestSetStructureAxioms(t *testing.T) {
	for _, v := range upstruct.CheckAxioms[upstruct.Set](upstruct.Sets, setEq, setSamples) {
		t.Error(v)
	}
}

// TestTrustStructureAxioms checks the certification semantics; equality
// is observational (same trustedness under the threshold), which is the
// notion the structure computes with.
func TestTrustStructureAxioms(t *testing.T) {
	st := upstruct.TrustStructure{L: 0.5}
	eq := func(a, b upstruct.Trust) bool { return st.Trusted(a) == st.Trusted(b) }
	samples := []upstruct.Trust{
		st.Zero(),
		upstruct.Score(0.1),
		upstruct.Score(0.49),
		upstruct.Score(0.51),
		upstruct.Score(0.9),
		{V: 1, R: upstruct.TrustTrue},
		{V: 0, R: upstruct.TrustFalse},
	}
	for _, v := range upstruct.CheckAxioms[upstruct.Trust](st, eq, samples) {
		t.Error(v)
	}
}

func TestSemiringBridgeBool(t *testing.T) {
	k := upstruct.BoolSemiring{}
	if msg := upstruct.CheckSemiringConditions[bool](k, boolEq, boolSamples); msg != "" {
		t.Fatalf("PosBool violates Theorem 4.5 conditions: %s", msg)
	}
	s := upstruct.FromSemiring[bool](k, func(a, b bool) bool { return a && !b })
	for _, v := range upstruct.CheckAxioms[bool](s, boolEq, boolSamples) {
		t.Error(v)
	}
	// The lifted structure coincides with the hand-written one.
	for _, a := range boolSamples {
		for _, b := range boolSamples {
			if s.Minus(a, b) != upstruct.Bool.Minus(a, b) || s.DotM(a, b) != upstruct.Bool.DotM(a, b) {
				t.Errorf("bridge diverges from BoolStructure at %v,%v", a, b)
			}
		}
	}
}

func TestSemiringBridgeSets(t *testing.T) {
	k := upstruct.SetSemiring{Universe: upstruct.NewSet("IL", "FR", "US", "DE")}
	if msg := upstruct.CheckSemiringConditions[upstruct.Set](k, setEq, setSamples); msg != "" {
		t.Fatalf("set semiring violates Theorem 4.5 conditions: %s", msg)
	}
	s := upstruct.FromSemiring[upstruct.Set](k, func(a, b upstruct.Set) upstruct.Set { return a.Diff(b) })
	for _, v := range upstruct.CheckAxioms[upstruct.Set](s, setEq, setSamples) {
		t.Error(v)
	}
}

// TestNatSemiringFailsConditions: provenance polynomials do not lift —
// not every semiring is an Update-Structure (Theorem 4.5 has real
// preconditions).
func TestNatSemiringFailsConditions(t *testing.T) {
	msg := upstruct.CheckSemiringConditions[int](upstruct.NatSemiring{}, func(a, b int) bool { return a == b }, []int{0, 1, 2, 3})
	if msg == "" {
		t.Fatal("NatSemiring unexpectedly satisfies the Theorem 4.5 conditions")
	}
}

// TestFuzzyMonusViolatesAxioms reproduces the paper's remark (end of
// Section 4.2) that the monus operator does not in general work as the
// minus of an Update-Structure: the fuzzy semiring satisfies the
// Theorem 4.5 conditions, but pairing it with its monus breaks the
// axioms (axiom 5 in particular).
func TestFuzzyMonusViolatesAxioms(t *testing.T) {
	k := upstruct.FuzzySemiring{}
	feq := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	samples := []float64{0, 0.25, 0.5, 0.75, 1}
	if msg := upstruct.CheckSemiringConditions[float64](k, feq, samples); msg != "" {
		t.Fatalf("fuzzy semiring should satisfy the conditions, got: %s", msg)
	}
	s := upstruct.FromSemiring[float64](k, upstruct.FuzzyMonus)
	violations := upstruct.CheckAxioms[float64](s, feq, samples)
	if len(violations) == 0 {
		t.Fatal("fuzzy monus unexpectedly satisfies all axioms")
	}
	found := false
	for _, v := range violations {
		if v.Law == "axiom 5" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected an axiom 5 violation, got %v", violations[0])
	}
}

// TestSetToBoolHomomorphism: h(S) = ("IL" ∈ S) is a homomorphism from
// the access-control structure to the Boolean structure — restricting
// the access-control view to one user.
func TestSetToBoolHomomorphism(t *testing.T) {
	h := func(s upstruct.Set) bool { return s.Contains("IL") }
	for _, v := range upstruct.CheckHomomorphism[upstruct.Set, bool](h, upstruct.Sets, upstruct.Bool, boolEq, setSamples) {
		t.Error(v)
	}
}

// TestProp42EvalCommutesWithHomomorphism checks Proposition 4.2 at the
// expression level: specializing an abstract expression into S1 and then
// mapping through h equals specializing directly into S2 under h∘env.
func TestProp42EvalCommutesWithHomomorphism(t *testing.T) {
	h := func(s upstruct.Set) bool { return s.Contains("IL") }
	r := rand.New(rand.NewSource(41))
	names := []string{"x1", "x2", "p", "q"}
	for trial := 0; trial < 200; trial++ {
		e := randConstructionExpr(r, names, 4)
		assign := make(map[core.Annot]upstruct.Set)
		env := func(a core.Annot) upstruct.Set {
			v, ok := assign[a]
			if !ok {
				var elems []string
				for _, c := range []string{"IL", "FR", "US"} {
					if r.Intn(2) == 0 {
						elems = append(elems, c)
					}
				}
				v = upstruct.NewSet(elems...)
				assign[a] = v
			}
			return v
		}
		lhs := h(upstruct.Eval(e, upstruct.Sets, env))
		rhs := upstruct.Eval(e, upstruct.Bool, func(a core.Annot) bool { return h(env(a)) })
		if lhs != rhs {
			t.Fatalf("Eval does not commute with homomorphism for %v", e)
		}
	}
}

// randConstructionExpr builds a random expression shaped like the
// provenance construction's output.
func randConstructionExpr(r *rand.Rand, names []string, depth int) *core.Expr {
	if depth == 0 || r.Intn(3) == 0 {
		if r.Intn(5) == 0 {
			return core.Zero()
		}
		return core.TupleVar(names[r.Intn(len(names))])
	}
	p := core.QueryVar(names[r.Intn(len(names))])
	a := randConstructionExpr(r, names, depth-1)
	switch r.Intn(4) {
	case 0:
		return core.PlusI(a, p)
	case 1:
		return core.Minus(a, p)
	case 2:
		b := randConstructionExpr(r, names, depth-1)
		return core.PlusM(a, core.DotM(core.Sum(b), p))
	default:
		b := randConstructionExpr(r, names, depth-1)
		c := randConstructionExpr(r, names, depth-1)
		return core.PlusM(a, core.DotM(core.Sum(b, c), p))
	}
}

func TestEvalExamples(t *testing.T) {
	// Example 4.3: t = products("Tennis Racket","Sport",$50) annotated
	// 0 +M (p2 ·M p'); deleting the input tuple (p2 := false) removes t.
	p2 := core.TupleAnnot("p2")
	pPrime := core.QueryAnnot("p'")
	e := core.PlusM(core.Zero(), core.DotM(core.Var(p2), core.Var(pPrime)))
	envAllTrue := func(core.Annot) bool { return true }
	if !upstruct.Eval(e, upstruct.Bool, envAllTrue) {
		t.Error("tuple should be present when nothing is deleted")
	}
	del := upstruct.MapEnv(map[core.Annot]bool{p2: false}, true)
	if upstruct.Eval(e, upstruct.Bool, del) {
		t.Error("deleting p2 must remove the tuple (Example 4.3)")
	}

	// Example 4.4: Products("Kids mnt bike","Sport",$50) annotated
	// 0 +M (((p1 +M (p3 ·M p)) − p) ·M p'); aborting the first
	// transaction (p := false) keeps the tuple.
	p1 := core.TupleAnnot("p1")
	p3 := core.TupleAnnot("p3")
	p := core.QueryAnnot("p")
	inner := core.Minus(core.PlusM(core.Var(p1), core.DotM(core.Var(p3), core.Var(p))), core.Var(p))
	e2 := core.PlusM(core.Zero(), core.DotM(inner, core.Var(pPrime)))
	if upstruct.Eval(e2, upstruct.Bool, envAllTrue) {
		t.Error("with both transactions the Sport tuple was modified away before T2 priced it")
	}
	abort := upstruct.MapEnv(map[core.Annot]bool{p: false}, true)
	if !upstruct.Eval(e2, upstruct.Bool, abort) {
		t.Error("aborting the first transaction must keep the tuple (Example 4.4)")
	}
}

func TestSetOperations(t *testing.T) {
	a := upstruct.NewSet("IL", "FR")
	b := upstruct.NewSet("FR", "US")
	if got := a.Union(b); !got.Equal(upstruct.NewSet("FR", "IL", "US")) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(upstruct.NewSet("FR")) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Diff(b); !got.Equal(upstruct.NewSet("IL")) {
		t.Errorf("Diff = %v", got)
	}
	if !a.Contains("IL") || a.Contains("US") {
		t.Error("Contains misbehaves")
	}
	if upstruct.NewSet("a", "a", "b").Len() != 2 {
		t.Error("NewSet must deduplicate")
	}
	if got := upstruct.NewSet("b", "a").String(); got != "{a, b}" {
		t.Errorf("String = %q", got)
	}
}

func TestEvalNFAgainstExprOnSets(t *testing.T) {
	p := core.QueryAnnot("p")
	n := core.NewNF(core.TupleVar("x"))
	n.AbsorbMod([]*core.Expr{core.TupleVar("y"), core.TupleVar("z")}, false, p)
	env := upstruct.MapEnv(map[core.Annot]upstruct.Set{
		core.TupleAnnot("x"): upstruct.NewSet("IL"),
		core.TupleAnnot("y"): upstruct.NewSet("FR", "US"),
		core.TupleAnnot("z"): upstruct.NewSet("DE"),
		p:                    upstruct.NewSet("FR", "DE"),
	}, upstruct.Set{})
	a := upstruct.EvalNF(n, upstruct.Sets, env)
	b := upstruct.Eval(n.ToExpr(), upstruct.Sets, env)
	if !a.Equal(b) {
		t.Errorf("EvalNF = %v, Eval = %v", a, b)
	}
	if !a.Equal(upstruct.NewSet("DE", "FR", "IL")) {
		t.Errorf("access control result = %v", a)
	}
}

// TestEvalMapEnvAllocatesNothing: valuing an expression over range
// leaves — the initial rows' annotations, which store no name — and a
// chained variable through MapEnv allocates nothing: a leaf's name is a
// piece of its range's page of names, built once.
func TestEvalMapEnvAllocatesNothing(t *testing.T) {
	leaves := core.Vars("evalalloc", core.KindTuple, 0, 3)
	q := core.Var(core.QueryAnnot("evalalloc-q"))
	e := core.PlusI(core.Minus(core.DotM(leaves[0], q), leaves[1]), leaves[2])
	env := upstruct.MapEnv(map[core.Annot]bool{core.TupleAnnot("evalalloc0"): false, core.TupleAnnot("evalalloc2"): false}, true)
	if upstruct.Eval(e, upstruct.Bool, env) {
		t.Fatal("the valuation deleting evalalloc0 and evalalloc2 keeps the tuple")
	}
	if n := testing.AllocsPerRun(100, func() { upstruct.Eval(e, upstruct.Bool, env) }); n != 0 {
		t.Fatalf("Eval with MapEnv over three range leaves and a chained variable allocates %.1f times, want 0", n)
	}
}
