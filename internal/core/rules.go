package core

// This file implements the rewrite rules of Figure 6 of the paper as a
// recursive transformation of arbitrary UP[X] expressions produced by
// the provenance construction of Section 3.1. Normalize realizes the
// transformation of Theorem 5.3: every expression obtained by applying a
// sequence of hyperplane updates to an X-database is rewritten into an
// equivalent expression in which, for every transaction annotation p,
// the p-level of the expression has one of the five normal-form shapes.
//
// The incremental engine (package engine) never materializes large
// expressions and uses NF directly; Normalize exists to normalize
// expressions after the fact — in particular the output of the naive
// construction — and serves as an executable specification that the
// incremental transitions of NF are equivalent to exhaustive rule
// application.

// isQueryVar reports whether e is a variable expression carrying the
// annotation p.
func isQueryVar(e *Expr, p Annot) bool {
	return e.IsVar(p)
}

// stripSamePhase removes from the root of e every operator layer that
// belongs to the same transaction annotation p, returning the underlying
// base (Rules 1 and 2: insertions and deletions override the earlier
// updates of their own transaction; algebraically axioms 2, 4, 7, 9
// and 10).
func stripSamePhase(e *Expr, p Annot) *Expr {
	for {
		switch {
		case (e.Op() == OpPlusI || e.Op() == OpMinus) && isQueryVar(e.Right(), p):
			e = e.Left()
		case e.Op() == OpPlusM && e.Right().Op() == OpDotM && isQueryVar(e.Right().Right(), p):
			e = e.Left()
		default:
			return e
		}
	}
}

// modContribution computes what the (already normalized) expression c
// contributes as a source of a modification annotated p, mirroring
// NF.Contribution: a tuple deleted under p contributes nothing (Rules 3
// and 8), a tuple inserted under p makes the target's existence
// unconditional (Rule 4), and modification layers under p are flattened
// (Rules 6/7 and axiom 12).
func modContribution(c *Expr, p Annot) (contrib []*Expr, inserted bool) {
	switch {
	case c.IsZero():
		return nil, false
	case c.Op() == OpPlusI && isQueryVar(c.Right(), p):
		return nil, true
	case c.Op() == OpMinus && isQueryVar(c.Right(), p):
		return nil, false
	case c.Op() == OpPlusM && c.Right().Op() == OpDotM && isQueryVar(c.Right().Right(), p):
		inner := c.Right().Left()
		var sum []*Expr
		if inner.Op() == OpSum {
			sum = inner.Children()
		} else {
			sum = []*Expr{inner}
		}
		left := c.Left()
		if left.Op() == OpMinus && isQueryVar(left.Right(), p) {
			// (a − p) +M (Σ ·M p): axiom 12 — only the summands pass through.
			return sum, false
		}
		out := make([]*Expr, 0, len(sum)+1)
		cl, ins := modContribution(left, p)
		if ins {
			return nil, true
		}
		out = append(out, cl...)
		out = append(out, sum...)
		return out, false
	default:
		return []*Expr{c}, false
	}
}

// Normalize rewrites e into the normal form of Theorem 5.3 by exhaustive
// application of the rules of Figure 6, processing the expression
// bottom-up. Expressions not produced by the provenance construction are
// still rewritten soundly: layers whose right operand is not a query
// annotation variable are treated as opaque.
//
// The input is canonicalized first and the result — itself canonical —
// is memoized on the interned node, so normalizing annotations that
// share history is linear in the number of distinct subterms, not in
// the (possibly exponential) tree size.
func Normalize(e *Expr) *Expr {
	return normalizeInterned(Intern(e))
}

func normalizeInterned(e *Expr) *Expr {
	if e.Op() <= OpVar {
		return e // 0 and variables are normal and carry no memo
	}
	x := e.memo()
	if n := x.normalized.Load(); n != nil {
		return n
	}
	n := normalizeStep(e)
	// Normalize is idempotent (TestNormalizeIdempotent): the result is
	// its own normal form.
	if n.Op() > OpVar {
		n.memo().normalized.Store(n)
	}
	x.normalized.Store(n)
	return n
}

func normalizeStep(e *Expr) *Expr {
	switch e.Op() {
	case OpSum:
		kids := make([]*Expr, len(e.Children()))
		for i, k := range e.Children() {
			kids[i] = normalizeInterned(k)
		}
		return Sum(kids...)
	case OpPlusI, OpMinus:
		l := normalizeInterned(e.Left())
		r := normalizeInterned(e.Right())
		if r.Op() == OpVar {
			l = stripSamePhase(l, r.Annot()) // Rules 1 and 2
		}
		return binary(e.Op(), l, r)
	case OpDotM:
		return binary(OpDotM, normalizeInterned(e.Left()), normalizeInterned(e.Right()))
	case OpPlusM:
		l := normalizeInterned(e.Left())
		r := normalizeInterned(e.Right())
		if r.Op() != OpDotM || r.Right().Op() != OpVar {
			return binary(OpPlusM, l, r)
		}
		p := r.Right().Annot()
		inner := r.Left()
		var raw []*Expr
		if inner.Op() == OpSum {
			raw = inner.Children()
		} else {
			raw = []*Expr{inner}
		}
		var contrib []*Expr
		inserted := false
		for _, c := range raw {
			cc, ins := modContribution(c, p)
			if ins {
				inserted = true
				break
			}
			contrib = append(contrib, cc...)
		}
		contrib = dedupExprs(contrib)
		if inserted {
			// Rule 4 (with Rule 1): the target is simply inserted.
			return PlusI(stripSamePhase(l, p), Var(p))
		}
		if len(contrib) == 0 {
			return l // Rule 3.
		}
		switch {
		case l.Op() == OpPlusI && isQueryVar(l.Right(), p):
			return l // Rule 5.
		case l.Op() == OpPlusM && l.Right().Op() == OpDotM && isQueryVar(l.Right().Right(), p):
			// Rules 6/7: merge into the existing modification layer.
			prev := l.Right().Left()
			var prevSum []*Expr
			if prev.Op() == OpSum {
				prevSum = prev.Children()
			} else {
				prevSum = []*Expr{prev}
			}
			merged := dedupExprs(append(append([]*Expr{}, prevSum...), contrib...))
			return PlusM(l.Left(), DotM(Sum(merged...), Var(p)))
		default:
			return PlusM(l, DotM(Sum(contrib...), Var(p)))
		}
	default:
		return e
	}
}
