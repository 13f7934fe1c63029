package core

// Subst returns e with every variable whose annotation is mapped by sub
// replaced by its image, leaving other nodes untouched. Substitution is
// the instantiation mechanism of the Figure 3 axiom schemas: an axiom
// holds for all valuations, hence for all substitutions of its
// metavariables by expressions (the property-based axiom tests rely on
// this). The walk is DAG-aware: shared subterms are rewritten once.
func Subst(e *Expr, sub map[Annot]*Expr) *Expr {
	if len(sub) == 0 {
		return e
	}
	memo := make(map[*Expr]*Expr)
	var walk func(x *Expr) *Expr
	walk = func(x *Expr) *Expr {
		if r, ok := memo[x]; ok {
			return r
		}
		var r *Expr
		switch x.Op() {
		case OpZero:
			r = x
		case OpVar:
			if img, ok := sub[x.Annot()]; ok {
				r = img
			} else {
				r = x
			}
		case OpSum:
			kids := make([]*Expr, len(x.Children()))
			for i, k := range x.Children() {
				kids[i] = walk(k)
			}
			r = Sum(kids...)
		default:
			r = binary(x.Op(), walk(x.Left()), walk(x.Right()))
		}
		memo[x] = r
		return r
	}
	return walk(e)
}
