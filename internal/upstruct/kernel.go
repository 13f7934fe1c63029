package upstruct

import "hyperprov/internal/core"

// The Boolean valuation kernel. Deletion propagation and transaction
// abortion (Section 4.1) evaluate every annotation under one valuation
// of a fixed shape — all basic annotations true except a small dead
// set — and annotations are hash-consed, so the same sub-expression
// sits under many rows and under every later version of a row. Eval
// above walks each of them as a tree and hashes an Annot per leaf. The
// kernel fixes the valuation once (Valuation) and then memoises the
// value of each canonical node under it (Kernel), so a node is
// computed once per valuation however often it is shared: a pass over
// a database is linear in its DAG, and re-evaluating a row after a
// commit touches only the nodes that commit created.
//
// Soundness is Proposition 4.2 and nothing else: the kernel computes
// exactly Eval(e, Bool, env) for the env the dead set denotes. It
// stores values, never rewrites an expression — a − b is evaluated as
// a ∧ ¬b at the node where it stands, so the fact that monus does not
// distribute over the other operators (Amsterdamer, Deutch, Tannen:
// "On the Limitations of Provenance for Queries With Difference")
// cannot bite. A memo belongs to one valuation; two valuations never
// share one. Node ids are process-local and never persisted.

// Valuation is a Boolean valuation that is true everywhere except on a
// dead set of basic annotations, resolved once so that a leaf is a
// pointer comparison. Immutable, safe to share between kernels.
type Valuation struct {
	// dead are the canonical Var nodes of the dead annotations that some
	// expression mentions; pending are the dead annotations that had no
	// node when the valuation was built and may get one later.
	dead    []*core.Expr
	pending []core.Annot
	// clean bounds the ids that can reach a dead variable from below: a
	// node's id exceeds the id of everything it reaches, so a node
	// below every dead variable is live or not regardless of the set.
	clean uint32
}

// Dead returns the valuation sending the given annotations to false
// and every other annotation to true. Annotations nothing mentions yet
// are looked up, never interned.
func Dead(annots ...core.Annot) *Valuation {
	// Read the node count before the lookups: a node interned after a
	// failed lookup gets an id above it.
	v := &Valuation{clean: uint32(min(core.InternStats().Nodes, 1<<32-2)) + 1}
	for _, a := range annots {
		if e := core.LookupVar(a); e != nil && e.ID() != 0 {
			v.dead = append(v.dead, e)
			v.clean = min(v.clean, e.ID())
		} else {
			v.pending = append(v.pending, a)
		}
	}
	return v
}

// annot is the valuation of one basic annotation.
func (v *Valuation) annot(a core.Annot) bool {
	for _, d := range v.dead {
		if d.IsVar(a) {
			return false
		}
	}
	for _, p := range v.pending {
		if p == a {
			return false
		}
	}
	return true
}

// leaf is annot on a Var node: identity decides for a canonical node,
// the name for a raw one and while a dead annotation has no node.
func (v *Valuation) leaf(e *core.Expr) bool {
	if id := e.ID(); id != 0 {
		if id < v.clean {
			return true
		}
		for _, d := range v.dead {
			if d == e {
				return false
			}
		}
		if len(v.pending) == 0 {
			return true
		}
	}
	return v.annot(e.Annot())
}

// Memo pages: a page holds the 2-bit states (0 unknown, 1 false,
// 2 true) of 4096 consecutive ids in 1 KiB, allocated when first
// written, so a kernel's memory follows the ids its valuation has
// actually met.
const (
	pageShift = 12
	pageWords = 1 << pageShift / 32
)

type memoPage [pageWords]uint64

// Kernel evaluates expressions under one Valuation, memoising per
// canonical node. Not safe for concurrent use; values it has returned
// stay valid for the kernel's lifetime (nodes are immutable).
type Kernel struct {
	val    *Valuation
	pages  []*memoPage
	misses uint64
}

// NewKernel returns a kernel with an empty memo.
func NewKernel(v *Valuation) *Kernel { return &Kernel{val: v} }

// Reset rebinds the kernel to another valuation and forgets every
// memoised value, keeping the pages for reuse.
func (k *Kernel) Reset(v *Valuation) {
	k.val = v
	for _, p := range k.pages {
		if p != nil {
			*p = memoPage{}
		}
	}
}

// Misses counts the nodes the kernel had to compute — the memo, the
// leaf test and Expr.Live answered the rest.
func (k *Kernel) Misses() uint64 { return k.misses }

// Eval is Eval(e, Bool, env) for the kernel's valuation.
func (k *Kernel) Eval(e *core.Expr) bool {
	id := e.ID()
	switch {
	case id == 0:
		// Zero, or a raw (DeepCopy) tree: nothing to key a memo on.
		return k.compute(e)
	case id < k.val.clean:
		return e.Live()
	case e.Op() == core.OpVar:
		return k.val.leaf(e)
	}
	pi, wi, sh := id>>pageShift, id>>5&(pageWords-1), id&31*2
	if int(pi) < len(k.pages) {
		if p := k.pages[pi]; p != nil {
			if m := p[wi] >> sh & 3; m != 0 {
				return m == 2
			}
		}
	}
	m := uint64(1)
	if k.compute(e) {
		m = 2
	}
	// compute may have grown k.pages underneath pi.
	for int(pi) >= len(k.pages) {
		k.pages = append(k.pages, nil)
	}
	p := k.pages[pi]
	if p == nil {
		p = new(memoPage)
		k.pages[pi] = p
	}
	p[wi] |= m << sh
	return m == 2
}

// compute evaluates one node from its children's values.
func (k *Kernel) compute(e *core.Expr) bool {
	k.misses++
	switch e.Op() {
	case core.OpVar:
		return k.val.leaf(e)
	case core.OpSum:
		for _, c := range e.Children() {
			if k.Eval(c) {
				return true
			}
		}
		return false
	case core.OpPlusI, core.OpPlusM:
		return k.Eval(e.Left()) || k.Eval(e.Right())
	case core.OpDotM:
		return k.Eval(e.Left()) && k.Eval(e.Right())
	case core.OpMinus:
		return k.Eval(e.Left()) && !k.Eval(e.Right())
	default: // OpZero
		return false
	}
}

// EvalNF is EvalNF(n, Bool, env) for the kernel's valuation, without
// materialising the normal form's expression.
func (k *Kernel) EvalNF(n *core.NF) bool {
	left := k.Eval(n.Base())
	if n.Kind() == core.NFBase {
		return left
	}
	p := k.val.annot(n.P())
	switch n.Kind() {
	case core.NFPlusI:
		return left || p
	case core.NFMinus:
		return left && !p
	case core.NFMinusMod:
		left = left && !p
	}
	if left || !p {
		return left
	}
	for _, b := range n.Sum() {
		if k.Eval(b) {
			return true
		}
	}
	return false
}
