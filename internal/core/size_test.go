package core

import (
	"testing"
	"unsafe"
)

// TestExprSizeUnchanged pins the node layout: one cache line per node
// (every interned node is immortal, so a word here is a word per node
// forever), the two operands of a binary node adjacent in the node —
// Children slices them — and the dense id in the first word beside the
// operator, where ID reads it.
func TestExprSizeUnchanged(t *testing.T) {
	if got := unsafe.Sizeof(Expr{}); got > 64 {
		t.Fatalf("unsafe.Sizeof(core.Expr{}) = %d, want at most 64", got)
	}
	if got := unsafe.Offsetof(Expr{}.id); got != 4 {
		t.Fatalf("id sits at offset %d, want 4 (the first word, after op and interned)", got)
	}
	l, r := TupleVar("size-l"), TupleVar("size-r")
	e := Minus(l, r)
	kids := e.Children()
	if len(kids) != 2 || &kids[0] != &e.lr[0] || &kids[1] != &e.lr[1] || kids[0] != l || kids[1] != r || e.Left() != l || e.Right() != r {
		t.Fatal("Children() of a binary node is not the node's own two operand words")
	}
	if uintptr(unsafe.Pointer(&kids[1]))-uintptr(unsafe.Pointer(&kids[0])) != unsafe.Sizeof(l) {
		t.Fatal("the operand words are not adjacent")
	}
	if n := testing.AllocsPerRun(100, func() { _ = e.Children(); _ = e.Child(1); _ = e.NumChildren() }); n != 0 {
		t.Fatalf("reading a binary node's children allocates %v times", n)
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
// engine stores (engine.TestVersionSizePinned), so at rest it is two
// words: base, and the pointer to the open transaction's record, nil in
// every committed form.
func TestNFSizePinned(t *testing.T) {
	if got := unsafe.Sizeof(NF{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(core.NF{}) = %d, want 16", got)
	}
}
