package core

// Minimize returns the canonical zero-minimized representation of e
// (Proposition 5.5): the zero-related axioms are applied bottom-up, and
// every sum is flattened, deduplicated and put into a deterministic
// order (Σ ranges over a set of expressions; reordering summands is
// sanctioned by axiom 1). For expressions in the normal form of
// Theorem 5.3 the result is one of
//
//	(1) a normal-form shape, (2) the literal 0, or (3) (Σ bi) ·M p,
//
// and the paper shows it is a unique minimal representative, which makes
// Minimize usable as a canonical form when comparing provenance
// expressions produced by different but set-equivalent transactions —
// with hash-consing the comparison is pointer equality: Minimize always
// returns an interned node, and UP[X]-equal inputs in normal form map
// to the *same* node.
//
// The result is memoized on the canonical node, so repeated
// minimization of shared history (the common case across rows that
// went through the same transactions) costs one pointer load, and one
// pass over a DAG is linear in its number of distinct nodes rather
// than its tree size.
func Minimize(e *Expr) *Expr {
	return minimizeInterned(Intern(e))
}

func minimizeInterned(e *Expr) *Expr {
	if e.Op() <= OpVar {
		return e // 0 and variables are minimal and carry no memo
	}
	x := e.memo()
	if m := x.minimized.Load(); m != nil {
		return m
	}
	m := minimizeStep(e)
	// Minimize is idempotent (TestMinimizeIdempotent), so the result is
	// its own fixed point; recording that saves the re-walk when a
	// minimized expression is minimized again.
	if m.Op() > OpVar {
		m.memo().minimized.Store(m)
	}
	x.minimized.Store(m)
	return m
}

func minimizeStep(e *Expr) *Expr {
	if e.Op() == OpSum {
		kids := make([]*Expr, 0, len(e.Children()))
		for _, k := range e.Children() {
			m := minimizeInterned(k)
			if m.IsZero() {
				continue
			}
			if m.Op() == OpSum {
				kids = append(kids, m.Children()...)
			} else {
				kids = append(kids, m)
			}
		}
		kids = dedupExprs(kids)
		if len(kids) == 0 {
			return zeroExpr
		}
		if len(kids) == 1 {
			return kids[0]
		}
		return Sum(SortedByHash(kids)...)
	}
	l := minimizeInterned(e.Left())
	r := minimizeInterned(e.Right())
	switch e.Op() {
	case OpMinus:
		if l.IsZero() {
			return zeroExpr
		}
		if r.IsZero() {
			return l
		}
	case OpDotM:
		if l.IsZero() || r.IsZero() {
			return zeroExpr
		}
	case OpPlusI, OpPlusM:
		if l.IsZero() {
			return r
		}
		if r.IsZero() {
			return l
		}
	}
	if l == e.Left() && r == e.Right() {
		return e
	}
	return binary(e.Op(), l, r)
}

// dedupExprs removes structural duplicates, keeping first occurrences.
// Elements are canonicalized, so duplicate detection is a pointer-set
// lookup (hash collisions are already resolved by the intern table).
func dedupExprs(es []*Expr) []*Expr {
	if len(es) < 2 {
		return es
	}
	seen := make(map[*Expr]struct{}, len(es))
	out := es[:0]
	for _, c := range es {
		c = Intern(c)
		if _, dup := seen[c]; dup {
			continue
		}
		seen[c] = struct{}{}
		out = append(out, c)
	}
	return out
}
