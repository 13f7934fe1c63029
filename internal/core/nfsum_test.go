package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// sumModel is the definition of a modification shape's Σ, written
// against the public constructors only: contributions arrive in order,
// nested sums are flattened (axiom 11), zeros dropped, raw trees
// interned, and a summand seen before is skipped — a set in insertion
// order. − does not distribute over it, so the order is observable.
type sumModel struct {
	list []*Expr
	seen map[*Expr]bool
}

func (m *sumModel) add(c *Expr) {
	switch {
	case c.IsZero():
	case c.Op() == OpSum:
		for _, k := range c.Children() {
			m.add(k)
		}
	default:
		if c = Intern(c); !m.seen[c] {
			m.seen[c] = true
			m.list = append(m.list, c)
		}
	}
}

// TestNFSumAcrossDedupThreshold drives summand lists from empty to well
// past sumScanMax through AbsorbMod sequences carrying duplicates,
// zeros, nested sums and raw (uninterned) copies, in both modification
// shapes. At every step Sum() must equal the model's list and ToExpr()
// must be the very node the model's list builds; below the threshold
// the NF must not have built a set, above it it must have.
func TestNFSumAcrossDedupThreshold(t *testing.T) {
	p := QueryAnnot("p-sum")
	pv := Var(p)
	fresh := 0
	for _, minus := range []bool{false, true} {
		r := rand.New(rand.NewSource(17))
		base := TupleVar("sum-base")
		n := NewNF(base)
		left := base
		if minus {
			n.Delete(p)
			left = Minus(base, pv)
		}
		m := &sumModel{seen: map[*Expr]bool{}}
		for step := 0; len(m.list) < 4*sumScanMax; step++ {
			var contrib []*Expr
			for i := r.Intn(4); i >= 0; i-- {
				var c *Expr
				switch k := r.Intn(10); {
				case k == 0:
					c = Zero()
				case k <= 2 && len(m.list) > 0: // a summand already there
					c = m.list[r.Intn(len(m.list))]
				case k == 3 && len(m.list) > 1: // a nested Σ of old and new
					fresh++
					c = Sum(m.list[r.Intn(len(m.list))], TupleVar(fmt.Sprintf("sum-n%d", fresh)), Zero())
				case k == 4 && len(m.list) > 0: // a raw copy of an old summand
					c = m.list[r.Intn(len(m.list))].DeepCopy()
				case k == 5 && len(m.list) > 0: // a raw tree over one
					c = Minus(m.list[r.Intn(len(m.list))], pv).DeepCopy()
				default:
					fresh++
					c = TupleVar(fmt.Sprintf("sum-v%d", fresh))
				}
				contrib = append(contrib, c)
			}
			n.AbsorbMod(contrib, false, p)
			for _, c := range contrib {
				m.add(c)
			}
			got := n.Sum()
			if len(got) != len(m.list) {
				t.Fatalf("minus=%v step %d: %d summands, model has %d", minus, step, len(got), len(m.list))
			}
			for i := range got {
				if got[i] != m.list[i] {
					t.Fatalf("minus=%v step %d: summand %d is %v, model has %v", minus, step, i, got[i], m.list[i])
				}
			}
			if len(got) == 0 {
				continue // Rule 3: nothing absorbed yet, the shape is unchanged
			}
			if want := PlusM(left, DotM(Sum(m.list...), pv)); n.ToExpr() != want {
				t.Fatalf("minus=%v step %d: ToExpr() = %v, want the node %v", minus, step, n.ToExpr(), want)
			}
			if hasSet := n.open.seen != nil; hasSet != (len(got) > sumScanMax) {
				t.Fatalf("minus=%v step %d: %d summands (threshold %d), pointer set built: %v", minus, step, len(got), sumScanMax, hasSet)
			}
		}
		c := n.Clone()
		c.AbsorbMod([]*Expr{TupleVar("sum-clone")}, false, p)
		if len(n.Sum()) != len(m.list) || len(c.Sum()) != len(m.list)+1 {
			t.Fatalf("minus=%v: Clone shares summand storage: %d and %d summands, want %d and %d", minus, len(n.Sum()), len(c.Sum()), len(m.list), len(m.list)+1)
		}
	}
}

// TestNFShortSumAllocatesOnce: absorbing a contribution into a fresh
// form allocates its open record, short summand storage inline, and
// nothing else — no set, no separate list. A form opened from an
// NFRecords and frozen back into it allocates nothing beyond the frozen
// expression, whatever the shape.
func TestNFShortSumAllocatesOnce(t *testing.T) {
	p := QueryAnnot("p-alloc")
	base, b := TupleVar("alloc-a"), []*Expr{TupleVar("alloc-b")}
	var n NF
	if got := testing.AllocsPerRun(100, func() {
		n = NF{base: base}
		n.AbsorbMod(b, false, p)
	}); got != 1 {
		t.Errorf("NFBase → NFMod with one summand: %v allocations, want 1", got)
	}
	var rs NFRecords
	plusI := PlusI(base, Var(p)) // interned up front: Freeze below finds the node
	if got := testing.AllocsPerRun(100, func() {
		n = NF{base: base}
		rs.Open(&n).Insert(p)
		n.Delete(p)
		n.AbsorbMod(b, false, p)
		n.AbsorbMod(nil, true, p)
		rs.Freeze(&n)
	}); got != 0 || n.Base() != plusI {
		t.Errorf("Insert/Delete/AbsorbMod on a recycled record: %v allocations and %v, want 0 and %v", got, n.Base(), plusI)
	}
}

// TestNFRecordsRecycle: a record frozen back into an NFRecords comes out
// of the next Open empty — shape NFBase, no p, no summands — whatever it
// held, so a form that goes straight from its base to a modification
// shape sums exactly its own contributions. A record that held more
// than sumKeep summands (a set among them) comes back without that
// storage, and the free list keeps at most nfRecordsKeep records.
func TestNFRecordsRecycle(t *testing.T) {
	p, q := QueryAnnot("p-rec"), QueryAnnot("q-rec")
	var rs NFRecords
	for _, n := range []int{1, sumKeep, sumKeep + 1, 2 * sumScanMax} {
		var big []*Expr
		for i := range n {
			big = append(big, TupleVar(fmt.Sprintf("rec-%d", i)))
		}
		a := NF{base: TupleVar("rec-a")}
		rs.Open(&a).AbsorbMod(big, false, p)
		rs.Freeze(&a)
		if a.open != nil || len(rs.free) != 1 {
			t.Fatalf("%d summands: Freeze left the record on the form or lost it", n)
		}
		o := rs.free[0]
		if o.kind != NFBase || o.p != (Annot{}) || len(o.list) != 0 || o.seen != nil || cap(o.list) > sumKeep {
			t.Fatalf("%d summands: the record came back as shape %v, p %v, %d summands of %d kept, set %v", n, o.kind, o.p, len(o.list), cap(o.list), o.seen != nil)
		}
		b := NF{base: TupleVar("rec-b")}
		c := []*Expr{TupleVar("rec-c")}
		rs.Open(&b).AbsorbMod(c, false, q)
		if b.open != o || b.Kind() != NFMod || len(b.Sum()) != 1 || b.Sum()[0] != c[0] {
			t.Fatalf("%d summands: the reused record reads shape %v, sum %v", n, b.Kind(), b.Sum())
		}
		rs.Freeze(&b)
		if want := PlusM(TupleVar("rec-b"), DotM(c[0], Var(q))); b.Base() != want {
			t.Fatalf("%d summands: froze into %v, want %v", n, b.Base(), want)
		}
	}
	forms := make([]NF, nfRecordsKeep+10)
	for i := range forms {
		forms[i].base = Zero()
		rs.Open(&forms[i]).Insert(p)
	}
	for i := range forms {
		rs.Freeze(&forms[i])
	}
	if len(rs.free) != nfRecordsKeep {
		t.Fatalf("the free list holds %d records after %d froze, want %d", len(rs.free), len(forms), nfRecordsKeep)
	}
}
