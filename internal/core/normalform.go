package core

import (
	"fmt"
	"maps"
)

// NFKind enumerates the five shapes of Theorem 5.3. Within a transaction
// annotated p, the provenance of every tuple can be kept in one of these
// shapes, where the base a and the summands b0…bn are expressions fixed
// at transaction start:
//
//	NFBase      a
//	NFPlusI     a +I p
//	NFMinus     a − p
//	NFMod       a +M ((b0 + … + bn) ·M p)
//	NFMinusMod  (a − p) +M ((b0 + … + bn) ·M p)
type NFKind uint8

const (
	NFBase NFKind = iota
	NFPlusI
	NFMinus
	NFMod
	NFMinusMod
)

// String names the shape.
func (k NFKind) String() string {
	switch k {
	case NFBase:
		return "a"
	case NFPlusI:
		return "a +I p"
	case NFMinus:
		return "a - p"
	case NFMod:
		return "a +M (Σb *M p)"
	case NFMinusMod:
		return "(a - p) +M (Σb *M p)"
	default:
		return fmt.Sprintf("NFKind(%d)", uint8(k))
	}
}

// NF is a provenance expression maintained in the normal form of
// Theorem 5.3. It records the shape, the base expression a (the tuple's
// provenance at the start of the current transaction, possibly 0), the
// current transaction annotation p (meaningful for all shapes but
// NFBase), and the deduplicated summands b0…bn for the modification
// shapes.
//
// The per-update transitions implemented by Insert, Delete, Contribution
// and AbsorbMod are exactly the rewrite rules of Figure 6 of the paper
// (see the comments on each method); every transition keeps the
// expression linear in the number of distinct contributing base
// expressions, avoiding the exponential blowup of Proposition 5.1.
//
// NF values are mutable and not safe for concurrent mutation.
//
// Layout: an NF is embedded by value in every row version the engine
// stores, so at rest it is two words. What the open transaction needs
// (shape, p, summands) sits in a record that Freeze folds into the base
// and releases: a frozen NF is a plain value, and copying the struct
// clones it. A form updated without a record from NFRecords allocates one.
type NF struct {
	base *Expr
	open *nfOpen // the open transaction's state; nil in every frozen form
}

// nfOpen is a form's state within one transaction: shape, p, and the
// summands in order of arrival (Σ ranges over a set, but prints and
// encodes in that order) with, past sumScanMax of them, a set for dedup.
// buf backs short lists, so a record is never copied.
type nfOpen struct {
	p    Annot
	list []*Expr
	seen map[*Expr]struct{}
	buf  [2]*Expr
	kind NFKind
}

// sumScanMax is the longest summand list deduplicated by scanning it;
// a longer one gets a pointer set. Summands are canonical nodes, so
// the scan compares words, and it wins for as long as the set's own
// cost (a map per modified row, grown as it fills) outweighs it:
// absorbing n distinct summands one at a time, each with a duplicate,
// costs 54 ns per summand by scan against 157 with a set from the
// first summand at n = 2, 58 : 94 at 8, 76 : 189 at 16, 72 : 195 at
// 32, 83 : 200 at 64 and 184 : 167 at 128. Every sum of the TPC-C mix
// holds one summand and the synthetic workload's longest holds 17, so
// below the crossover no workload here builds a set at all.
const sumScanMax = 64

// sumKeep is the most summands a record keeps storage for.
const sumKeep = 32

// become moves the record to shape k under p, dropping its summands.
func (o *nfOpen) become(k NFKind, p Annot) {
	o.kind, o.p, o.seen = k, p, nil
	clear(o.list)
	if o.list = o.list[:0]; cap(o.list) > sumKeep {
		o.list = o.buf[:0]
	}
}

// NFRecords is one writer's free list of open records: Open gives a
// form a record before an update, Freeze takes it back at the
// transaction boundary, so a writer in steady state allocates none. One
// writer owns it, so it takes no lock; not safe for concurrent use.
type NFRecords struct{ free []*nfOpen }

// nfRecordsKeep bounds the free list — 80 kB of records, 256 kB of
// summands behind them — so a huge transaction leaves nothing behind.
const nfRecordsKeep = 1024

// Open gives n a record unless it has one, and returns n.
func (rs *NFRecords) Open(n *NF) *NF {
	if k := len(rs.free); n.open == nil && k > 0 {
		n.open, rs.free = rs.free[k-1], rs.free[:k-1]
	}
	return n
}

// Freeze is n.Freeze, keeping n's record for the next Open.
func (rs *NFRecords) Freeze(n *NF) {
	o := n.open
	n.Freeze()
	if o != nil && len(rs.free) < nfRecordsKeep {
		rs.free = append(rs.free, o)
	}
}

// NewNF returns a normal form in shape NFBase over the given base
// expression (use Zero() for a tuple absent from the database).
func NewNF(base *Expr) *NF {
	return &NF{base: base}
}

// frozen is what a form without a record reads: shape NFBase, no p and
// no summands. Only records from rec are ever written.
var frozen nfOpen

// st returns n's record, or frozen.
func (n *NF) st() *nfOpen {
	if n.open == nil {
		return &frozen
	}
	return n.open
}

// rec returns n's record, allocating one for a form that has none.
func (n *NF) rec() *nfOpen {
	if n.open == nil {
		n.open = new(nfOpen)
		n.open.list = n.open.buf[:0]
	}
	return n.open
}

// Kind reports the current shape.
func (n *NF) Kind() NFKind { return n.st().kind }

// Base returns the base expression a.
func (n *NF) Base() *Expr { return n.base }

// P returns the transaction annotation p of a non-NFBase shape.
func (n *NF) P() Annot { return n.st().p }

// Sum returns the summands b0…bn of a modification shape. The returned
// slice must not be modified.
func (n *NF) Sum() []*Expr { return n.st().list }

// IsZero reports whether the normal form is (syntactically) the absent
// annotation 0, i.e. shape NFBase over the literal 0. Tuples whose
// normal form is zero are outside the support of the annotated relation.
func (n *NF) IsZero() bool { return n.Kind() == NFBase && n.base.IsZero() }

// Live reports the tuple's set-semantics membership: the base's
// Expr.Live in shape NFBase, else in after an insertion or modification
// and out after a deletion — ToExpr().Live() whenever every source of a
// modification is live, as under the engine's live matching.
func (n *NF) Live() bool {
	k := n.Kind()
	return k != NFMinus && (k != NFBase || n.base.Live())
}

// Clone returns an independent copy of n. The base and summand
// expressions are shared (they are immutable).
func (n *NF) Clone() *NF {
	c := &NF{base: n.base}
	if o := n.open; o != nil {
		c.open = &nfOpen{p: o.p, kind: o.kind, seen: maps.Clone(o.seen)}
		c.open.list = append(c.open.buf[:0], o.list...)
	}
	return c
}

func (n *NF) checkP(p Annot) {
	if n.Kind() != NFBase && n.P() != p {
		panic(fmt.Sprintf("core: normal form carries transaction annotation %s but was updated under %s; call Freeze at transaction boundaries", n.P().Name, p))
	}
}

// Insert applies an insertion annotated p to the tuple: the provenance
// becomes old +I p, normalized by Rule 1 (an insertion overrides every
// earlier update of the same transaction; for the individual shapes this
// is axiom 10 for NFMinus, axiom 9 for NFMod/NFMinusMod and idempotence
// of +I for NFPlusI), so the shape becomes NFPlusI over the unchanged
// base.
func (n *NF) Insert(p Annot) {
	n.checkP(p)
	n.rec().become(NFPlusI, p)
}

// Delete applies a deletion (or the −M half of a modification) annotated
// p: the provenance becomes old − p, normalized by Rule 2 (axiom 2 drops
// a pending modification, axiom 4 collapses repeated deletion, axiom 7
// cancels an insertion of the same transaction), so the shape becomes
// NFMinus over the unchanged base.
func (n *NF) Delete(p Annot) {
	n.checkP(p)
	n.rec().become(NFMinus, p)
}

// Contribution reports what this tuple contributes when it is a source
// of a modification query of the same transaction:
//
//   - NFBase      → its base expression (0 contributes nothing);
//   - NFPlusI     → inserted = true: by Rule 4 a modification fed by a
//     tuple inserted in this transaction is equivalent to inserting the
//     target tuple, regardless of other sources;
//   - NFMinus     → nothing (Rules 3 and 8: a tuple already deleted in
//     this transaction has no effect; algebraically axiom 5);
//   - NFMod       → its base plus its summands, flattened (Rules 6/7,
//     axiom 3: successive modifications factorize into one);
//   - NFMinusMod  → its summands only (axiom 12: the deleted base is
//     dropped, the re-received modifications pass through).
func (n *NF) Contribution() (contrib []*Expr, inserted bool) {
	return n.AppendContribution(nil)
}

// AppendContribution is Contribution appending to dst, for a caller
// collecting the contributions of many sources into one list.
func (n *NF) AppendContribution(dst []*Expr) (contrib []*Expr, inserted bool) {
	switch n.Kind() {
	case NFBase, NFMod:
		if !n.base.IsZero() {
			dst = append(dst, n.base)
		}
	case NFPlusI:
		return dst, true
	case NFMinus, NFMinusMod:
	default:
		panic("core: invalid NF kind")
	}
	return append(dst, n.Sum()...), false
}

// AbsorbMod applies the target half of a modification annotated p: the
// provenance becomes old +M ((Σ contrib) ·M p), where contrib is the
// concatenation of the Contribution of every source tuple and inserted
// reports whether any source was freshly inserted in this transaction.
// The normalizing transitions are:
//
//   - any source inserted → shape NFPlusI over the unchanged base
//     (Rule 4; combined with axiom 10 for NFMinus and axiom 9 for the
//     modification shapes);
//   - no contribution and no insertion → unchanged (Rule 3);
//   - NFBase   → NFMod with the contributed summands;
//   - NFPlusI  → unchanged (Rule 5: the tuple's existence is already
//     guaranteed by the insertion of this transaction);
//   - NFMinus  → NFMinusMod (the fifth shape of Theorem 5.3);
//   - NFMod / NFMinusMod → summands merged (Rules 6/7, axioms 1 and 3).
//
// Duplicate summands are dropped (Σ ranges over a set of expressions).
func (n *NF) AbsorbMod(contrib []*Expr, inserted bool, p Annot) {
	n.checkP(p)
	if inserted {
		// (a +I p) +M e = a +I p — already normalized (Rule 5).
		if n.Kind() != NFPlusI {
			n.rec().become(NFPlusI, p)
		}
		return
	}
	nonZero := contrib
	for i, c := range contrib {
		if c.IsZero() {
			nonZero = make([]*Expr, 0, len(contrib)-1)
			nonZero = append(nonZero, contrib[:i]...)
			for _, c2 := range contrib[i+1:] {
				if !c2.IsZero() {
					nonZero = append(nonZero, c2)
				}
			}
			break
		}
	}
	if len(nonZero) == 0 {
		return // Rule 3: an update based only on deleted tuples has no effect.
	}
	o := n.rec()
	switch o.kind {
	case NFBase:
		o.kind = NFMod
	case NFPlusI:
		return // Rule 5.
	case NFMinus:
		o.kind = NFMinusMod
	case NFMod, NFMinusMod:
		// merge below
	}
	o.p = p
	for _, c := range nonZero {
		o.add(c)
	}
}

// add appends c to the sum unless it is already a summand.
func (o *nfOpen) add(c *Expr) {
	if c.IsZero() {
		return
	}
	if c.Op() == OpSum {
		// Σ is flat: a summand that is itself a sum contributes its
		// elements (axiom 11).
		for _, k := range c.Children() {
			o.add(k)
		}
		return
	}
	// Engine-produced summands are already canonical, making this a
	// no-op; raw expressions handed in by external callers are interned
	// so the pointer comparisons below stay exact.
	c = Intern(c)
	if o.seen != nil {
		if _, dup := o.seen[c]; dup {
			return
		}
		o.seen[c] = struct{}{}
	} else {
		for _, b := range o.list {
			if b == c {
				return
			}
		}
		if len(o.list) == sumScanMax {
			o.seen = make(map[*Expr]struct{}, 2*sumScanMax)
			for _, b := range o.list {
				o.seen[b] = struct{}{}
			}
			o.seen[c] = struct{}{}
		}
	}
	o.list = append(o.list, c)
}

// ToExpr materializes the normal form as an UP[X] expression, one of the
// five shapes of Theorem 5.3. Summands keep their insertion order; use
// Minimize for the canonical zero-minimized representation.
func (n *NF) ToExpr() *Expr {
	switch n.Kind() {
	case NFBase:
		return n.base
	case NFPlusI:
		return PlusI(n.base, Var(n.P()))
	case NFMinus:
		return Minus(n.base, Var(n.P()))
	case NFMod:
		return PlusM(n.base, DotM(Sum(n.Sum()...), Var(n.P())))
	case NFMinusMod:
		return PlusM(Minus(n.base, Var(n.P())), DotM(Sum(n.Sum()...), Var(n.P())))
	default:
		panic("core: invalid NF kind")
	}
}

// Size returns the tree size of ToExpr() without materializing it.
func (n *NF) Size() int64 {
	switch kind := n.Kind(); kind {
	case NFBase:
		return n.base.Size()
	case NFPlusI, NFMinus:
		return n.base.Size() + 2
	case NFMod, NFMinusMod:
		s := int64(0)
		for _, b := range n.Sum() {
			s += b.Size()
		}
		if len(n.Sum()) > 1 {
			s++ // the Σ node
		}
		s += 3 + n.base.Size() // +M, ·M, p
		if kind == NFMinusMod {
			s += 2 // −, p
		}
		return s
	default:
		panic("core: invalid NF kind")
	}
}

// Freeze ends the current transaction for this tuple: the materialized
// expression becomes the new base and the shape returns to NFBase, so
// that a following transaction (with a different annotation) can be
// tracked incrementally on top of it.
func (n *NF) Freeze() {
	if o := n.open; o != nil {
		n.base, n.open = n.ToExpr(), nil
		o.become(NFBase, Annot{})
	}
}
