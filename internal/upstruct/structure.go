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
// empty sum evaluates to Zero.
func Eval[T any](e *core.Expr, s Structure[T], env Env[T]) T {
	switch e.Op() {
	case core.OpZero:
		return s.Zero()
	case core.OpVar:
		return env(e.LeafAnnot())
	case core.OpSum:
		kids := e.Children()
		acc := Eval(kids[0], s, env)
		for _, k := range kids[1:] {
			acc = s.Plus(acc, Eval(k, s, env))
		}
		return acc
	case core.OpPlusI:
		return s.PlusI(Eval(e.Left(), s, env), Eval(e.Right(), s, env))
	case core.OpPlusM:
		return s.PlusM(Eval(e.Left(), s, env), Eval(e.Right(), s, env))
	case core.OpDotM:
		return s.DotM(Eval(e.Left(), s, env), Eval(e.Right(), s, env))
	case core.OpMinus:
		return s.Minus(Eval(e.Left(), s, env), Eval(e.Right(), s, env))
	default:
		panic(fmt.Sprintf("upstruct: unknown op %v", e.Op()))
	}
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
