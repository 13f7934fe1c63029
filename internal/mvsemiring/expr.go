package mvsemiring

import (
	"fmt"
	"sort"
	"strings"
)

// VersionOp is the operation recorded by a version annotation.
type VersionOp byte

const (
	// OpInsert marks an insertion version annotation I^id_{T,ν}(k).
	OpInsert VersionOp = 'I'
	// OpUpdate marks an update version annotation U^id_{T,ν}(k).
	OpUpdate VersionOp = 'U'
	// OpDelete marks a deletion version annotation D^id_{T,ν}(k).
	OpDelete VersionOp = 'D'
	// OpCommit marks a commit version annotation C^id_{T,ν}(k).
	OpCommit VersionOp = 'C'
)

type exprKind uint8

const (
	kindZero exprKind = iota
	kindOne
	kindVar
	kindVersion
	kindPlus
	kindTimes
)

// Expr is an N[X]ν expression in tree representation: a variable (the
// identifier of a freshly inserted tuple), a semiring constant, a sum or
// product, or a version annotation X^id_{T,ν}(k) wrapping the previous
// annotation k of the tuple identified by id.
type Expr struct {
	kind  exprKind
	name  string // kindVar
	op    VersionOp
	id    string // affected tuple identifier
	txn   string // transaction identifier
	time  int    // ν − 1, the execution time
	child *Expr  // kindVersion
	kids  []*Expr
	size  int64
}

var (
	zeroExpr = &Expr{kind: kindZero, size: 1}
	oneExpr  = &Expr{kind: kindOne, size: 1}
)

// Zero returns the semiring 0.
func Zero() *Expr { return zeroExpr }

// One returns the semiring 1.
func One() *Expr { return oneExpr }

// Var returns a fresh-tuple variable.
func Var(name string) *Expr { return &Expr{kind: kindVar, name: name, size: 1} }

// Version returns the version annotation op^id_{txn,time+1}(child).
func Version(op VersionOp, id, txn string, time int, child *Expr) *Expr {
	return &Expr{kind: kindVersion, op: op, id: id, txn: txn, time: time, child: child, size: 1 + child.size}
}

// Plus returns the sum of the given expressions (empty → 0, singleton →
// the element).
func Plus(kids ...*Expr) *Expr {
	switch len(kids) {
	case 0:
		return zeroExpr
	case 1:
		return kids[0]
	}
	size := int64(1)
	for _, k := range kids {
		size += k.size
	}
	return &Expr{kind: kindPlus, kids: kids, size: size}
}

// Times returns the product of the given expressions (empty → 1,
// singleton → the element).
func Times(kids ...*Expr) *Expr {
	switch len(kids) {
	case 0:
		return oneExpr
	case 1:
		return kids[0]
	}
	size := int64(1)
	for _, k := range kids {
		size += k.size
	}
	return &Expr{kind: kindTimes, kids: kids, size: size}
}

// Size returns the tree size of the expression (the provenance-length
// measure used in Section 6.4).
func (e *Expr) Size() int64 { return e.size }

// TokenSize returns the length of the expression counted in rendered
// tokens: constants and variables count 1, sums and products 1 per
// operator, and a version annotation X^id_{T,ν}(…) counts 4 (operation,
// tuple identifier, transaction, timestamp) plus its argument. Unlike
// the raw node count, this is comparable to UP[X] expression sizes,
// where every node renders as a single token.
func (e *Expr) TokenSize() int64 {
	switch e.kind {
	case kindVersion:
		return 4 + e.child.TokenSize()
	case kindPlus, kindTimes:
		var n int64 = int64(len(e.kids)) - 1
		for _, k := range e.kids {
			n += k.TokenSize()
		}
		return n
	default:
		return 1
	}
}

// Depth returns the height of the expression tree; MV version chains
// make trees deep, which Section 6.4 identifies as the cost driver of
// the tree implementation.
func (e *Expr) Depth() int {
	switch e.kind {
	case kindVersion:
		return 1 + e.child.Depth()
	case kindPlus, kindTimes:
		d := 0
		for _, k := range e.kids {
			if kd := k.Depth(); kd > d {
				d = kd
			}
		}
		return d + 1
	default:
		return 1
	}
}

// String renders the expression in the paper's notation, e.g.
// "U^t1_{T2,5}(I^t1_{T,2}(x1))".
func (e *Expr) String() string {
	var b strings.Builder
	e.write(&b)
	return b.String()
}

func (e *Expr) write(b *strings.Builder) {
	switch e.kind {
	case kindZero:
		b.WriteByte('0')
	case kindOne:
		b.WriteByte('1')
	case kindVar:
		b.WriteString(e.name)
	case kindVersion:
		fmt.Fprintf(b, "%c^%s_{%s,%d}(", byte(e.op), e.id, e.txn, e.time+1)
		e.child.write(b)
		b.WriteByte(')')
	case kindPlus, kindTimes:
		sep := " + "
		if e.kind == kindTimes {
			sep = " * "
		}
		b.WriteByte('(')
		for i, k := range e.kids {
			if i > 0 {
				b.WriteString(sep)
			}
			k.write(b)
		}
		b.WriteByte(')')
	}
}

// Unv strips the embedded version history, keeping only the underlying
// N[X] information (Section 3.3; Example 3.11): insert, update and
// commit annotations are replaced by their arguments, a deletion maps to
// 0, and sums/products are rebuilt over the stripped children.
func (e *Expr) Unv() *Expr {
	switch e.kind {
	case kindZero, kindOne, kindVar:
		return e
	case kindVersion:
		if e.op == OpDelete {
			return zeroExpr
		}
		return e.child.Unv()
	case kindPlus:
		kids := make([]*Expr, 0, len(e.kids))
		for _, k := range e.kids {
			u := k.Unv()
			if u.kind == kindZero {
				continue
			}
			kids = append(kids, u)
		}
		return Plus(kids...)
	case kindTimes:
		kids := make([]*Expr, 0, len(e.kids))
		for _, k := range e.kids {
			u := k.Unv()
			if u.kind == kindZero {
				return zeroExpr
			}
			if u.kind == kindOne {
				continue
			}
			kids = append(kids, u)
		}
		return Times(kids...)
	default:
		return e
	}
}

// Canonical returns the expression with the children of every sum and
// product sorted by their rendering. N[X] addition and multiplication
// are commutative, so the result is Unv-equivalent; it gives a
// deterministic representative for comparing underlying polynomials.
func (e *Expr) Canonical() *Expr {
	switch e.kind {
	case kindVersion:
		return Version(e.op, e.id, e.txn, e.time, e.child.Canonical())
	case kindPlus, kindTimes:
		kids := make([]*Expr, len(e.kids))
		for i, k := range e.kids {
			kids[i] = k.Canonical()
		}
		sort.Slice(kids, func(i, j int) bool { return kids[i].String() < kids[j].String() })
		if e.kind == kindPlus {
			return Plus(kids...)
		}
		return Times(kids...)
	default:
		return e
	}
}

// Equal reports structural equality.
func (e *Expr) Equal(o *Expr) bool {
	if e == o {
		return true
	}
	if e.kind != o.kind || e.size != o.size || e.name != o.name ||
		e.op != o.op || e.id != o.id || e.txn != o.txn || e.time != o.time || len(e.kids) != len(o.kids) {
		return false
	}
	if e.kind == kindVersion {
		return e.child.Equal(o.child)
	}
	for i := range e.kids {
		if !e.kids[i].Equal(o.kids[i]) {
			return false
		}
	}
	return true
}
