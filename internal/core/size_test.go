package core

import (
	"testing"
	"unsafe"
)

// TestExprSizeUnchanged: the dense node id lives in the padding after
// op; a node must not have grown by it (every interned node is
// immortal, so a word here is a word per node forever).
func TestExprSizeUnchanged(t *testing.T) {
	if got := unsafe.Sizeof(Expr{}); got != 96 {
		t.Fatalf("unsafe.Sizeof(core.Expr{}) = %d, want 96", got)
	}
	if got := unsafe.Offsetof(Expr{}.id); got != 4 {
		t.Fatalf("id sits at offset %d, want 4 (the padding after op)", got)
	}
}

// TestNodeIDsGrowFromTheLeaves: ids are dense, unique per canonical
// node, larger than the ids of everything the node reaches, and absent
// (0) from Zero and raw trees — the ordering upstruct.Valuation's
// "reaches no dead variable" shortcut rests on.
func TestNodeIDsGrowFromTheLeaves(t *testing.T) {
	a, b, p := TupleVar("id-a"), TupleVar("id-b"), QueryVar("id-p")
	e := PlusM(Minus(a, p), DotM(Sum(a, b, Minus(b, p)), p))
	seen := map[uint32]*Expr{}
	var walk func(x *Expr)
	walk = func(x *Expr) {
		if x.ID() == 0 {
			t.Fatalf("canonical node %s has no id", x)
		}
		if prev, dup := seen[x.ID()]; dup && prev != x {
			t.Fatalf("id %d names both %s and %s", x.ID(), prev, x)
		}
		seen[x.ID()] = x
		for _, k := range x.Children() {
			if k.ID() >= x.ID() {
				t.Fatalf("%s (id %d) reaches %s (id %d)", x, x.ID(), k, k.ID())
			}
			walk(k)
		}
	}
	walk(e)
	if int64(e.ID()) > InternStats().Nodes {
		t.Fatalf("id %d beyond the %d interned nodes: ids are not dense", e.ID(), InternStats().Nodes)
	}
	if Zero().ID() != 0 || e.DeepCopy().ID() != 0 || PlusI(e.DeepCopy(), a).ID() != 0 {
		t.Fatal("Zero and raw trees must have id 0")
	}
	if Intern(e.DeepCopy()) != e || LookupVar(TupleAnnot("id-a")) != a || LookupVar(QueryAnnot("id-a")) != nil {
		t.Fatal("Intern/LookupVar disagree with the table")
	}
}

// TestNFSizePinned: an NF is embedded by value in every row version the
// engine stores (engine.TestVersionSizePinned), so at rest it is five
// words: base, the summand pointer, p's name, and one word shared by
// p's kind and the shape tag.
func TestNFSizePinned(t *testing.T) {
	if got := unsafe.Sizeof(NF{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(core.NF{}) = %d, want 40", got)
	}
}
