package db

import (
	"fmt"
	"strings"
)

// UpdateKind enumerates the three hyperplane update queries.
type UpdateKind uint8

const (
	// OpInsert is a single-tuple insertion R+(u):- (u all constants).
	OpInsert UpdateKind = iota
	// OpDelete deletes every tuple satisfying a hyperplane pattern,
	// R−(u):-.
	OpDelete
	// OpModify is RM(u1, u2):- — every tuple satisfying u1 is deleted
	// and re-inserted with some attributes set to constants.
	OpModify
)

// String names the update kind.
func (k UpdateKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpModify:
		return "modify"
	default:
		return fmt.Sprintf("UpdateKind(%d)", uint8(k))
	}
}

// SetClause describes one position of a modification's u2: either keep
// the attribute (Set == false) or overwrite it with the constant Val.
type SetClause struct {
	Set bool
	Val Value
}

// Keep is the SetClause that leaves an attribute unchanged.
func Keep() SetClause { return SetClause{} }

// SetTo is the SetClause overwriting an attribute with a constant.
func SetTo(v Value) SetClause { return SetClause{Set: true, Val: v} }

// Update is one hyperplane update query against a named relation.
type Update struct {
	Kind UpdateKind
	Rel  string
	// Row is the inserted tuple (OpInsert).
	Row Tuple
	// Sel is the selection pattern u1 (OpDelete, OpModify).
	Sel Pattern
	// Set is the per-attribute assignment derived from u2 (OpModify).
	Set []SetClause
	// Conds are optional inter-attribute conditions (the conjunctive
	// extension beyond the hyperplane fragment; see WithConds).
	Conds []AttrCond
}

// Insert builds an insertion query.
func Insert(rel string, row Tuple) Update {
	return Update{Kind: OpInsert, Rel: rel, Row: row}
}

// Delete builds a deletion query.
func Delete(rel string, sel Pattern) Update {
	return Update{Kind: OpDelete, Rel: rel, Sel: sel}
}

// Modify builds a modification query.
func Modify(rel string, sel Pattern, set []SetClause) Update {
	return Update{Kind: OpModify, Rel: rel, Sel: sel, Set: set}
}

// Target computes the tuple that t is modified into (the instantiation
// of u2 for the instantiation t of u1) in a fresh tuple; AppendTarget
// stages it in a buffer the caller reuses.
func (u Update) Target(t Tuple) Tuple {
	return u.AppendTarget(make(Tuple, 0, len(t)), t)
}

// AppendTarget writes the target of t into dst[:0], reusing dst's backing
// array when it is large enough, and returns it. t is only read.
func (u Update) AppendTarget(dst, t Tuple) Tuple {
	dst = append(dst[:0], t...)
	for i, c := range u.Set {
		if c.Set {
			dst[i] = c.Val
		}
	}
	return dst
}

// IsIdentityOn reports whether the modification maps t to itself.
func (u Update) IsIdentityOn(t Tuple) bool {
	for i, c := range u.Set {
		if c.Set && t[i] != c.Val {
			return false
		}
	}
	return true
}

// Validate checks the update against the schema and the hyperplane
// fragment.
func (u Update) Validate(s *Schema) error {
	r := s.Relation(u.Rel)
	if r == nil {
		return fmt.Errorf("db: unknown relation %s", u.Rel)
	}
	for _, c := range u.Conds {
		if u.Kind == OpInsert {
			return fmt.Errorf("db: insertion cannot carry attribute conditions")
		}
		if err := c.validate(r); err != nil {
			return err
		}
	}
	switch u.Kind {
	case OpInsert:
		return u.Row.Conforms(r)
	case OpDelete:
		return u.Sel.Validate(r)
	case OpModify:
		if err := u.Sel.Validate(r); err != nil {
			return err
		}
		if len(u.Set) != r.Arity() {
			return fmt.Errorf("db: modify on %s has %d set clauses, want %d", u.Rel, len(u.Set), r.Arity())
		}
		for i, c := range u.Set {
			if c.Set && c.Val.Kind() != r.Attrs[i].Kind {
				return fmt.Errorf("db: modify on %s sets attribute %s to kind %v, want %v",
					u.Rel, r.Attrs[i].Name, c.Val.Kind(), r.Attrs[i].Kind)
			}
		}
		return nil
	default:
		return fmt.Errorf("db: unknown update kind %v", u.Kind)
	}
}

// String renders the update in the paper's datalog-like notation.
func (u Update) String() string {
	switch u.Kind {
	case OpInsert:
		return fmt.Sprintf("%s+%s:-", u.Rel, u.Row)
	case OpDelete:
		return fmt.Sprintf("%s-%s:-", u.Rel, u.Sel)
	case OpModify:
		var b strings.Builder
		fmt.Fprintf(&b, "%sM(%s -> (", u.Rel, u.Sel)
		for i, c := range u.Set {
			if i > 0 {
				b.WriteString(", ")
			}
			if c.Set {
				b.WriteString(c.Val.String())
			} else {
				b.WriteString(u.Sel[i].String())
			}
		}
		b.WriteString(")):-")
		return b.String()
	default:
		return "?"
	}
}

// Transaction is a sequence of update queries applied atomically in
// order. In the provenance model the whole transaction carries a single
// annotation named by Label.
//
// A transaction handed to an engine (engine.DB's ApplyTransaction,
// ApplyAll, ApplyBatch) is borrowed for the call. Nothing behind that
// call — engine, WAL, commit hooks, subscriptions — keeps any of it
// past the return except Label; update lists, inserted rows, patterns,
// SET lists and disequality constants are the caller's again, to
// recycle (see Builder).
type Transaction struct {
	// Label is the transaction's provenance annotation name (the paper's
	// p ∈ P).
	Label string
	// Updates are applied in order, each to the result of its
	// predecessors.
	Updates []Update
}

// Validate checks every update against the schema.
func (t *Transaction) Validate(s *Schema) error {
	for i := range t.Updates {
		if err := t.Updates[i].Validate(s); err != nil {
			return fmt.Errorf("transaction %s, query %d: %w", t.Label, i, err)
		}
	}
	return nil
}

// NumQueries reports the number of update queries in the transaction.
func (t *Transaction) NumQueries() int { return len(t.Updates) }

// CountQueries sums the number of update queries across transactions;
// the paper's x-axes ("number of updates") count individual queries.
func CountQueries(txns []Transaction) int {
	n := 0
	for i := range txns {
		n += len(txns[i].Updates)
	}
	return n
}
