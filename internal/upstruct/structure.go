package upstruct

import (
	"fmt"

	"hyperprov/internal/core"
)

// Structure is an Update-Structure (K, +M, ·M, −, +I, +, 0): a concrete
// domain of provenance values together with one operation per abstract
// UP[X] operator. Implementations are expected to satisfy the
// equivalence axioms of Figure 3 and the zero-related axioms of
// Section 3.1; CheckAxioms verifies both on sample values.
type Structure[T any] interface {
	// Zero is the interpretation of the 0 element (absent tuple /
	// update that did not take place).
	Zero() T
	// PlusI interprets a +I b (insertion).
	PlusI(a, b T) T
	// PlusM interprets a +M b (receiving a modification result).
	PlusM(a, b T) T
	// DotM interprets a ·M b (tuple a updated by query b).
	DotM(a, b T) T
	// Minus interprets a − b (deletion / modification source).
	Minus(a, b T) T
	// Plus interprets the disjunction a + b (Σ folds over Plus).
	Plus(a, b T) T
}

// Env is a valuation of basic annotations into a concrete domain.
type Env[T any] func(core.Annot) T

// MapEnv builds an Env from a map, falling back to def for annotations
// absent from the map. This is the usual shape of provenance use: assign
// concrete values (False for a deleted tuple or an aborted transaction,
// a country set, a trust score) to the annotations of interest and a
// default to all others.
func MapEnv[T any](m map[core.Annot]T, def T) Env[T] {
	return func(a core.Annot) T {
		if v, ok := m[a]; ok {
			return v
		}
		return def
	}
}

// Eval specializes the abstract provenance expression e into the
// structure s under the valuation env. Σ nodes fold left over Plus; an
// empty sum evaluates to Zero. It walks e as a tree: a node shared by k
// parents is evaluated k times, so a row modified onto itself in each of
// n epochs (whose base holds the previous base twice) costs 2^n. EvalMemo
// walks the DAG.
func Eval[T any](e *core.Expr, s Structure[T], env Env[T]) T {
	return EvalMemo(e, s, env, nil)
}

// EvalMemo is Eval evaluating each inner node of e once: memo holds the
// values of the inner nodes evaluated so far (nodes are canonical, so a
// shared subexpression is one pointer), and the caller clears it when
// env changes. A nil memo is Eval's tree walk.
func EvalMemo[T any](e *core.Expr, s Structure[T], env Env[T], memo map[*core.Expr]T) T {
	switch e.Op() {
	case core.OpZero:
		return s.Zero()
	case core.OpVar:
		return env(e.LeafAnnot())
	}
	if v, ok := memo[e]; ok {
		return v
	}
	var v T
	switch e.Op() {
	case core.OpSum:
		kids := e.Children()
		v = EvalMemo(kids[0], s, env, memo)
		for _, k := range kids[1:] {
			v = s.Plus(v, EvalMemo(k, s, env, memo))
		}
	case core.OpPlusI:
		v = s.PlusI(EvalMemo(e.Left(), s, env, memo), EvalMemo(e.Right(), s, env, memo))
	case core.OpPlusM:
		v = s.PlusM(EvalMemo(e.Left(), s, env, memo), EvalMemo(e.Right(), s, env, memo))
	case core.OpDotM:
		v = s.DotM(EvalMemo(e.Left(), s, env, memo), EvalMemo(e.Right(), s, env, memo))
	case core.OpMinus:
		v = s.Minus(EvalMemo(e.Left(), s, env, memo), EvalMemo(e.Right(), s, env, memo))
	default:
		panic(fmt.Sprintf("upstruct: unknown op %v", e.Op()))
	}
	if memo != nil {
		memo[e] = v
	}
	return v
}

// EvalNF specializes a normal-form value without materializing its
// expression tree.
func EvalNF[T any](n *core.NF, s Structure[T], env Env[T]) T {
	base := Eval(n.Base(), s, env)
	switch n.Kind() {
	case core.NFBase:
		return base
	case core.NFPlusI:
		return s.PlusI(base, env(n.P()))
	case core.NFMinus:
		return s.Minus(base, env(n.P()))
	case core.NFMod, core.NFMinusMod:
		sum := n.Sum()
		acc := s.Zero()
		for i, b := range sum {
			v := Eval(b, s, env)
			if i == 0 {
				acc = v
			} else {
				acc = s.Plus(acc, v)
			}
		}
		left := base
		if n.Kind() == core.NFMinusMod {
			left = s.Minus(base, env(n.P()))
		}
		return s.PlusM(left, s.DotM(acc, env(n.P())))
	default:
		panic("upstruct: invalid NF kind")
	}
}
