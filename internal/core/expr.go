package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Op enumerates the node kinds of UP[X] expressions.
type Op uint8

const (
	// OpZero is the distinguished 0 element (annotation of absent tuples).
	OpZero Op = iota
	// OpVar is a basic annotation from X ∪ P.
	OpVar
	// OpPlusI is the binary insertion operator a +I b.
	OpPlusI
	// OpMinus is the binary deletion operator a − b (the paper's −D and
	// −M, unified by axiom derivation in Example 3.3).
	OpMinus
	// OpPlusM is the binary modification-receive operator a +M b.
	OpPlusM
	// OpDotM is the binary modification operator a ·M b.
	OpDotM
	// OpSum is the n-ary disjunction Σ / + over the annotations of the
	// tuples collapsed into a single modification target.
	OpSum
)

// String returns the operator's symbol as used by the paper.
func (o Op) String() string {
	switch o {
	case OpZero:
		return "0"
	case OpVar:
		return "var"
	case OpPlusI:
		return "+I"
	case OpMinus:
		return "-"
	case OpPlusM:
		return "+M"
	case OpDotM:
		return "*M"
	case OpSum:
		return "+"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Expr is an immutable UP[X] provenance expression. Expressions built
// through the constructors are hash-consed: structurally equal
// expressions are the same canonical node of a global intern table (see
// intern.go), so they compare pointer-equal and shared history is
// stored once, as a DAG. The cached Size is always the size of the
// expression *as a tree* (shared nodes counted once per occurrence),
// which is the size measure used throughout the paper's evaluation;
// DAGSize reports the deduplicated measure. Construct expressions only
// through the exported constructors; the zero value of Expr is not
// valid. Expr values must never be copied (meta and ext are atomic).
//
// Layout: 48 bytes, and a canonical node is immortal, so a word here is
// a word per node forever. One word, meta, packs the header; only Live
// writes it after birth, so every header read is one atomic load. A
// binary node — nearly every node of an update history — and a
// canonical sum of two hold their operands themselves, a canonical node
// is its own intern-table entry, and what only some nodes need sits
// behind ext. A range leaf (Vars) has neither ext nor a chain link.
// Raw (DeepCopy) nodes are the same struct with interned false, id 0
// and next never linked.
type Expr struct {
	id   uint32        // dense process-local identity (see ID)
	meta atomic.Uint32 // op, interned, Live cache and tree size
	hash uint64
	lr   [2]*Expr // operands of a binary node or a sum of two
	next *Expr    // chains the canonical nodes of one intern-table slot
	// ext is set at birth on a variable other than a range leaf and on a
	// larger sum, and created on demand (memo) when Minimize or
	// Normalize first meet a binary node or a sum of two.
	ext atomic.Pointer[exprExt]
}

// The bits of Expr.meta, from the low end: the operator, the interned
// flag, the Live cache (0 not computed, 1 false, 2 true) and the tree
// size. A size of metaBig or more stores metaBig there and the exact
// size beside the node: in bigSizes for a canonical node (immortal, so
// nothing there goes stale), behind a raw node's unlinked next for a
// raw one. No benchmark history comes near 2²⁶ nodes in one tree.
const (
	metaOpBits    = 3
	metaInterned  = 1 << metaOpBits
	metaLiveShift = metaOpBits + 1
	metaSizeShift = metaLiveShift + 2
	metaBig       = 1<<(32-metaSizeShift) - 1
)

var bigSizes sync.Map // *Expr → int64

// setMeta writes the header of a node that is not yet published; flags
// is metaInterned or 0.
func (e *Expr) setMeta(op Op, flags uint32, size int64) {
	if size >= metaBig {
		if flags != 0 {
			bigSizes.Store(e, size)
		} else {
			e.next = &Expr{hash: uint64(size)}
		}
		size = metaBig
	}
	e.meta.Store(uint32(op) | flags | uint32(size)<<metaSizeShift)
}

// addSize adds tree sizes, saturating at math.MaxInt64: a DAG of 64
// nodes can describe a tree of 2⁶⁴ nodes.
func addSize(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// exprExt is what only some nodes need: a variable's annotation or a
// sum's children, which share two words, and the Minimize/Normalize
// results of a canonical composite node. Both functions are
// deterministic and return interned output, so a racing double
// computation stores the same pointer twice; the memo fields are atomic
// only to keep concurrent readers defined.
type exprExt struct {
	// data is a variable's name bytes or a sum's first child; n is the
	// name's length<<8 | its kind, or the number of children.
	data                  unsafe.Pointer
	n                     int
	minimized, normalized atomic.Pointer[Expr]
}

// set stores a variable's annotation or a sum's children.
func (x *exprExt) set(op Op, ann Annot, kids []*Expr) {
	if op == OpSum {
		x.data, x.n = unsafe.Pointer(unsafe.SliceData(kids)), len(kids)
	} else {
		x.data, x.n = unsafe.Pointer(unsafe.StringData(ann.Name)), len(ann.Name)<<8|int(ann.Kind)
	}
}

func (x *exprExt) annot() Annot {
	return Annot{Name: unsafe.String((*byte)(x.data), x.n>>8), Kind: AnnotKind(x.n)}
}

func (x *exprExt) kids() []*Expr { return unsafe.Slice((**Expr)(x.data), x.n) }

// newExt returns e after giving it a fresh extension record.
func (e *Expr) newExt(op Op, ann Annot, kids []*Expr) *Expr {
	x := new(exprExt)
	x.set(op, ann, kids)
	e.ext.Store(x)
	return e
}

// memo returns the node's extension record, creating it if e is a
// binary node or a sum of two that had no use for one so far.
func (e *Expr) memo() *exprExt {
	if e.ext.Load() == nil {
		e.ext.CompareAndSwap(nil, new(exprExt))
	}
	return e.ext.Load()
}

// zeroExpr is the canonical 0 node; Zero always returns it, so a
// syntactic zero test is a pointer or op comparison.
var zeroExpr = newNode(OpZero, metaInterned, 1, hashNode(OpZero, Annot{}, nil))

// newNode returns a node of no arena: the 0 node and raw ones.
func newNode(op Op, flags uint32, size int64, h uint64) *Expr {
	e := &Expr{hash: h}
	e.setMeta(op, flags, size)
	return e
}

// Zero returns the distinguished 0 expression.
func Zero() *Expr { return zeroExpr }

// Var returns the canonical expression consisting of the single basic
// annotation a.
func Var(a Annot) *Expr {
	return interns.intern(OpVar, a, nil, hashNode(OpVar, a, nil))
}

// TupleVar is shorthand for Var(TupleAnnot(name)).
func TupleVar(name string) *Expr { return Var(TupleAnnot(name)) }

// QueryVar is shorthand for Var(QueryAnnot(name)).
func QueryVar(name string) *Expr { return Var(QueryAnnot(name)) }

func binary(op Op, l, r *Expr) *Expr {
	// The fingerprint folds the children's cached hashes, so nested
	// constructor chains (Sum over Minus over Var) hash two words per
	// level instead of re-walking structure.
	h := hashBinary(op, l.hash, r.hash)
	if !l.Interned() || !r.Interned() {
		// A raw (DeepCopy'd) child makes the parent raw: raw trees model
		// the paper's unshared tree memory and must not pollute the
		// intern table with nodes whose children are not canonical.
		e := newNode(op, 0, addSize(1, addSize(l.Size(), r.Size())), h)
		e.lr = [2]*Expr{l, r}
		return e
	}
	return interns.internBinary(op, l, r, h)
}

// PlusI returns l +I r.
func PlusI(l, r *Expr) *Expr { return binary(OpPlusI, l, r) }

// Minus returns l − r.
func Minus(l, r *Expr) *Expr { return binary(OpMinus, l, r) }

// PlusM returns l +M r.
func PlusM(l, r *Expr) *Expr { return binary(OpPlusM, l, r) }

// DotM returns l ·M r.
func DotM(l, r *Expr) *Expr { return binary(OpDotM, l, r) }

// Sum returns the disjunction Σ kids. A sum of zero children is 0 and a
// sum of one child is that child; sums are otherwise kept n-ary and
// nested sums are flattened one level, matching the paper's treatment of
// Σ over a set of expressions.
func Sum(kids ...*Expr) *Expr {
	if len(kids) == 1 && kids[0].Op() != OpSum {
		return kids[0]
	}
	if len(kids) == 2 && kids[0].Op() != OpSum && kids[1].Op() != OpSum {
		// A sum of two is a binary node: its fingerprint is hashBinary's.
		return binary(OpSum, kids[0], kids[1])
	}
	flat := make([]*Expr, 0, len(kids))
	for _, k := range kids {
		if k.Op() == OpSum {
			flat = append(flat, k.Children()...)
		} else {
			flat = append(flat, k)
		}
	}
	switch len(flat) {
	case 0:
		return zeroExpr
	case 1:
		return flat[0]
	}
	h := hashNode(OpSum, Annot{}, flat)
	for _, k := range flat {
		if !k.Interned() {
			size := int64(1)
			for _, c := range flat {
				size = addSize(size, c.Size())
			}
			return newNode(OpSum, 0, size, h).newExt(OpSum, Annot{}, flat)
		}
	}
	return interns.intern(OpSum, Annot{}, flat, h)
}

// Op reports the node kind.
func (e *Expr) Op() Op { return Op(e.meta.Load() & (1<<metaOpBits - 1)) }

// Annot returns the basic annotation of an OpVar node; it panics on any
// other node kind. A leaf Vars minted has no annotation stored: its name
// is derived here — a piece of its range's page of names once a
// LeafAnnot has built the page, else a string of its own, the one place
// that allocates for it (AppendAnnot and IsVar do not).
func (e *Expr) Annot() Annot {
	if e.Op() != OpVar {
		panic("core: Annot called on non-variable expression")
	}
	if x := e.ext.Load(); x != nil {
		return x.annot()
	}
	r, i := interns.ranges.Load().rangeOf(e)
	if name, ok := r.name(i, false); ok {
		return Annot{Name: name, Kind: r.kind}
	}
	var buf [32]byte
	return Annot{Name: string(strconv.AppendInt(append(buf[:0], r.prefix...), int64(i), 10)), Kind: r.kind}
}

// LeafAnnot is Annot for a walk that values many leaves (upstruct.Eval):
// a leaf Vars minted is named by a piece of its range's page of names,
// which the first LeafAnnot on the page builds, so the walk allocates
// once per page of leaves instead of once per leaf. Point lookups use
// Annot, which builds no page.
func (e *Expr) LeafAnnot() Annot {
	if e.Op() == OpVar && e.ext.Load() == nil {
		r, i := interns.ranges.Load().rangeOf(e)
		name, _ := r.name(i, true)
		return Annot{Name: name, Kind: r.kind}
	}
	return e.Annot()
}

// AppendAnnot appends the name of an OpVar node's annotation to dst and
// returns its kind: Annot without building the name.
func (e *Expr) AppendAnnot(dst []byte) ([]byte, AnnotKind) {
	if x := e.ext.Load(); x != nil {
		a := x.annot()
		return append(dst, a.Name...), a.Kind
	}
	r, i := interns.ranges.Load().rangeOf(e)
	return strconv.AppendInt(append(dst, r.prefix...), int64(i), 10), r.kind
}

// LeafIndex reports an OpVar node as prefix<i> of its kind, i a
// canonical decimal index of at most 18 digits (t17, not t017), without
// building the name; ok is false for other names. A range leaf and a
// variable interned by name answer alike.
func (e *Expr) LeafIndex() (prefix string, kind AnnotKind, i int, ok bool) {
	if x := e.ext.Load(); x != nil {
		a := x.annot()
		prefix, i, ok = splitIndex(a.Name)
		return prefix, a.Kind, i, ok
	}
	r, i := interns.ranges.Load().rangeOf(e)
	return r.prefix, r.kind, i, i <= MaxLeafIndex
}

// MaxLeafIndex is the largest index LeafIndex reports.
const MaxLeafIndex = 999_999_999_999_999_999

// IsVar reports whether e is the variable of the annotation a.
func (e *Expr) IsVar(a Annot) bool {
	if e.Op() != OpVar {
		return false
	}
	var buf [32]byte
	name, kind := e.AppendAnnot(buf[:0])
	return kind == a.Kind && string(name) == a.Name
}

// NumChildren reports the number of children.
func (e *Expr) NumChildren() int { return len(e.Children()) }

// Child returns the i'th child.
func (e *Expr) Child(i int) *Expr { return e.Children()[i] }

// Children returns the children slice — for a binary node and a sum
// of two that Sum built the two operand words of the node itself, so
// the call allocates nothing. The returned slice must not be modified.
func (e *Expr) Children() []*Expr {
	switch op := e.Op(); {
	case op == OpSum && e.lr[0] == nil:
		return e.ext.Load().kids()
	case op >= OpPlusI:
		return e.lr[:]
	}
	return nil
}

// Left returns the left operand of a binary node.
func (e *Expr) Left() *Expr { return e.lr[0] }

// Right returns the right operand of a binary node.
func (e *Expr) Right() *Expr { return e.lr[1] }

// Size returns the tree size (number of nodes, shared nodes counted per
// occurrence) of the expression. This is the provenance-size measure of
// the paper's Section 6. It saturates at math.MaxInt64.
func (e *Expr) Size() int64 {
	switch s := int64(e.meta.Load() >> metaSizeShift); {
	case s < metaBig:
		return s
	case !e.Interned():
		return int64(e.next.hash)
	}
	s, _ := bigSizes.Load(e)
	return s.(int64)
}

// ID returns the dense identity the intern table gave a canonical node:
// 1, 2, 3, … in interning order, so a node's id is larger than the id
// of every node it reaches. Zero, raw (DeepCopy) nodes and their
// enclosing raw trees answer 0. Ids index per-valuation memo tables
// (upstruct.Kernel); they are process-local and must never be
// persisted.
func (e *Expr) ID() uint32 { return e.id }

// Hash returns a structural hash of the expression. Equal expressions
// have equal hashes; the converse holds with high probability only.
func (e *Expr) Hash() uint64 { return e.hash }

// IsZero reports whether the expression is the literal 0. Per Section 3.1
// a tuple is in the support of an annotated relation iff its annotation
// is not (syntactically) 0.
func (e *Expr) IsZero() bool { return e.Op() == OpZero }

// Live reports whether a tuple annotated e is in the database when
// nothing is deleted and no transaction aborted: e's value in the
// Boolean structure of Section 4.1 (+I, +M and Σ are ∨, ·M is ∧, a − b
// is a ∧ ¬b, 0 is false) with every annotation true. Nodes are
// immutable, so the value is computed once per node — a walk of the
// DAG, not of the tree — and a racing computation sets the same bits.
func (e *Expr) Live() bool {
	if l := e.meta.Load() >> metaLiveShift & 3; l != 0 {
		return l == 2
	}
	var v bool
	switch e.Op() {
	case OpVar:
		v = true
	case OpSum:
		for _, k := range e.Children() {
			v = v || k.Live()
		}
	case OpPlusI, OpPlusM:
		v = e.lr[0].Live() || e.lr[1].Live()
	case OpDotM:
		v = e.lr[0].Live() && e.lr[1].Live()
	case OpMinus:
		v = e.lr[0].Live() && !e.lr[1].Live()
	}
	bits := uint32(1) << metaLiveShift
	if v {
		bits <<= 1
	}
	for m := e.meta.Load(); !e.meta.CompareAndSwap(m, m|bits); m = e.meta.Load() {
	}
	return v
}

// Equal reports structural equality of two expressions. For two
// interned expressions this is a pointer comparison: hash-consing makes
// structural equality O(1) in every caller (dedupExprs, SortedByHash,
// the rewrite-rule guards, the snapshot codec).
func (e *Expr) Equal(o *Expr) bool {
	if e == o {
		return true
	}
	if e == nil || o == nil {
		return e == o
	}
	if e.Interned() && o.Interned() {
		// Distinct canonical nodes are structurally distinct.
		return false
	}
	if e.hash != o.hash || e.Op() != o.Op() || (e.Op() == OpVar && e.Annot() != o.Annot()) {
		return false
	}
	return slices.EqualFunc(e.Children(), o.Children(), (*Expr).Equal)
}

// DeepCopy returns a structurally identical expression sharing no nodes
// with e. The naive provenance engine uses it to model the copying cost
// that the paper's Section 6.2 attributes to large naive expressions;
// the copies are deliberately NOT interned (and neither are trees built
// on top of them), so the copy-on-write configuration keeps paying the
// paper's tree-shaped memory. Intern restores canonical sharing.
func (e *Expr) DeepCopy() *Expr {
	op := e.Op()
	if op == OpZero {
		return zeroExpr
	}
	c := newNode(op, 0, e.Size(), e.hash)
	switch op {
	case OpVar:
		return c.newExt(OpVar, e.Annot(), nil)
	case OpSum:
		kids := make([]*Expr, len(e.Children()))
		for i, k := range e.Children() {
			kids[i] = k.DeepCopy()
		}
		return c.newExt(OpSum, Annot{}, kids)
	}
	c.lr = [2]*Expr{e.lr[0].DeepCopy(), e.lr[1].DeepCopy()}
	return c
}

// annotsTreeWalk is the largest tree Annots walks whole. A seen set only
// saves re-walking shared subterms and costs a page directory plus a
// page per id range touched: over every row of a 63 000-row synthetic
// state (three in four annotations under 4 nodes) a set per call took
// 192 ms and 142 MB, tree walks up to 1 024 nodes 89 ms and 24 MB; on a
// TPC-C state (trees up to 16 000 nodes) 2.7 s and 992 MB against 2.1 s
// and 747 MB. The set is for trees exponential in their DAG.
const annotsTreeWalk = 1024

// Annots appends every basic annotation occurring in e (with
// multiplicity removed) to the given map keyed by annotation. Pass nil to
// allocate a fresh map.
func (e *Expr) Annots(into map[Annot]struct{}) map[Annot]struct{} {
	if into == nil {
		into = make(map[Annot]struct{})
	}
	var seen *NodeSet
	if e.Size() > annotsTreeWalk {
		seen = new(NodeSet)
	}
	var walk func(x *Expr)
	walk = func(x *Expr) {
		if seen != nil && !seen.Add(x) {
			return
		}
		if x.Op() == OpVar {
			into[x.Annot()] = struct{}{}
			return
		}
		for _, k := range x.Children() {
			walk(k)
		}
	}
	walk(e)
	return into
}

// Depth returns the height of the expression tree (a leaf has depth 1).
func (e *Expr) Depth() int {
	d := 0
	for _, k := range e.Children() {
		if kd := k.Depth(); kd > d {
			d = kd
		}
	}
	return d + 1
}

// DAGSize returns the number of distinct nodes reachable from e, i.e. the
// size of the expression when shared sub-expressions are stored once.
// The naive engine with copy-on-write disabled (an ablation, see package
// engine) produces expressions whose memory footprint is the DAG size
// even when the tree size is exponential.
func (e *Expr) DAGSize() int64 {
	return e.DAGSizeInto(new(NodeSet))
}

// DAGSizeInto adds every node reachable from e to seen and returns the
// number of nodes that were new. Passing one seen set across many
// expressions computes their combined DAG size — with hash-consing,
// the actual number of expression nodes held in memory for all of them
// (the measure engine.ProvDAGSize and the server stats report next to
// the paper's tree size).
func (e *Expr) DAGSizeInto(seen *NodeSet) int64 {
	if !seen.Add(e) {
		return 0
	}
	added := int64(1)
	for _, k := range e.Children() {
		added += k.DAGSizeInto(seen)
	}
	return added
}

// SortedByHash returns a copy of the given expressions sorted by
// (hash, rendered string) — a deterministic order used to canonicalize
// sums, justified by axiom 1 (sum elements commute under +M chains) and
// the paper's treatment of Σ as ranging over a *set* of expressions.
func SortedByHash(es []*Expr) []*Expr {
	out := make([]*Expr, len(es))
	copy(out, es)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].hash != out[j].hash {
			return out[i].hash < out[j].hash
		}
		return out[i].String() < out[j].String()
	})
	return out
}

// FNV-1a 64-bit parameters. The structural hash is computed with inline
// arithmetic rather than hash/fnv so constructor calls allocate nothing;
// the byte stream hashed — op, annotation kind, annotation name bytes,
// then each child hash little-endian — is exactly the hash/fnv encoding
// used by earlier versions, so hash values (and with them the
// SortedByHash sum order and snapshot bytes) are unchanged.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func hashNode(op Op, ann Annot, kids []*Expr) uint64 {
	h := hashHeader(op, ann)
	for _, k := range kids {
		h = hashWord(h, k.hash)
	}
	return h
}

// hashBinary is hashNode for a binary node given the child hashes
// directly, so constructor chains hash child fingerprints without
// materializing a kids slice.
func hashBinary(op Op, lh, rh uint64) uint64 {
	return hashWord(hashWord(hashHeader(op, Annot{}), lh), rh)
}

func hashHeader(op Op, ann Annot) uint64 {
	h := fnvOffset64
	h ^= uint64(op)
	h *= fnvPrime64
	h ^= uint64(ann.Kind)
	h *= fnvPrime64
	for i := 0; i < len(ann.Name); i++ {
		h ^= uint64(ann.Name[i])
		h *= fnvPrime64
	}
	return h
}

func hashWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}
