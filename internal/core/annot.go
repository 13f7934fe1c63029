package core

import "fmt"

// AnnotKind distinguishes the two sources of basic annotations in the
// paper's model: annotations drawn from X, attached to database tuples,
// and annotations drawn from P, attached to update queries (one per
// transaction).
type AnnotKind uint8

const (
	// KindTuple marks an annotation from X attached to a database tuple.
	KindTuple AnnotKind = iota
	// KindQuery marks an annotation from P attached to an update query or
	// transaction.
	KindQuery
)

// String returns "tuple" or "query".
func (k AnnotKind) String() string {
	switch k {
	case KindTuple:
		return "tuple"
	case KindQuery:
		return "query"
	default:
		return fmt.Sprintf("AnnotKind(%d)", uint8(k))
	}
}

// Annot is a basic provenance annotation: an opaque identifier together
// with its kind. Annotations are value types and compare with ==.
type Annot struct {
	Name string
	Kind AnnotKind
}

// TupleAnnot returns a tuple annotation (an element of X) with the given
// name.
func TupleAnnot(name string) Annot { return Annot{Name: name, Kind: KindTuple} }

// QueryAnnot returns a query/transaction annotation (an element of P)
// with the given name.
func QueryAnnot(name string) Annot { return Annot{Name: name, Kind: KindQuery} }

// String returns the annotation name.
func (a Annot) String() string { return a.Name }

// Vars returns the variables of the annotations prefix<from> …
// prefix<from+n-1> of the given kind, interned as one batch: what an
// engine names its initial rows by. Names no one interned before become
// range leaves (see leaves.go); the returned slice is their table, to be
// read, never modified.
func Vars(prefix string, kind AnnotKind, from, n int) []*Expr {
	return interns.vars(prefix, kind, from, n)
}
