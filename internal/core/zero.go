package core

// SimplifyZero applies the zero-related axioms of Section 3.1 of the
// paper, bottom-up, until none applies:
//
//	0 − a        = 0
//	0 ·M a       = a ·M 0 = 0
//	0 +M a       = a
//	0 +I a       = a
//	a op 0       = a        for op ∈ {+I, +M, −}
//
// In addition, 0 summands are dropped from Σ (for every concrete
// Update-Structure in the paper, + has 0 as a neutral element; see the
// deletion-propagation, access-control and certification semantics of
// Section 4.1). The result is equivalent to e in UP[X].
func SimplifyZero(e *Expr) *Expr {
	switch e.Op() {
	case OpZero, OpVar:
		return e
	case OpSum:
		kids := make([]*Expr, 0, len(e.Children()))
		changed := false
		for _, k := range e.Children() {
			s := SimplifyZero(k)
			if s != k {
				changed = true
			}
			if s.IsZero() {
				changed = true
				continue
			}
			kids = append(kids, s)
		}
		if !changed {
			return e
		}
		return Sum(kids...)
	}
	l := SimplifyZero(e.Left())
	r := SimplifyZero(e.Right())
	switch e.Op() {
	case OpMinus:
		if l.IsZero() {
			return zeroExpr // 0 − a = 0
		}
		if r.IsZero() {
			return l // a − 0 = a
		}
	case OpDotM:
		if l.IsZero() || r.IsZero() {
			return zeroExpr // 0 ·M a = a ·M 0 = 0
		}
	case OpPlusI, OpPlusM:
		if l.IsZero() {
			return r // 0 op a = a
		}
		if r.IsZero() {
			return l // a op 0 = a
		}
	}
	if l == e.Left() && r == e.Right() {
		return e
	}
	return binary(e.Op(), l, r)
}
