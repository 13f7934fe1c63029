package core

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"unsafe"
)

// TestExprSizeUnchanged pins the node layout: 48 bytes a node (every
// interned node is immortal, so a word here is a word per node
// forever), the two operands of a binary node adjacent in the node —
// Children slices them — and the dense id in the first word beside the
// packed header, where ID reads it.
func TestExprSizeUnchanged(t *testing.T) {
	if got := unsafe.Sizeof(Expr{}); got != 48 {
		t.Fatalf("unsafe.Sizeof(core.Expr{}) = %d, want 48", got)
	}
	if got := unsafe.Offsetof(Expr{}.id); got != 0 {
		t.Fatalf("id sits at offset %d, want 0 (the first word, before the packed header)", got)
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

// TestSizeSaturates: tree sizes past what the packed header holds are
// exact, and past int64 they saturate instead of wrapping. A chain of
// 63 doublings is a 64-node DAG whose tree has 2⁶⁴ − 1 nodes; read as a
// wrapped -1, Annots took it for a small tree and walked all of it.
func TestSizeSaturates(t *testing.T) {
	a := TupleVar("sat-a")
	for _, raw := range []bool{false, true} {
		x := a
		if raw {
			x = a.DeepCopy()
		}
		var chain []*Expr // chain[k] is k doublings of a: 2^(k+1) − 1 nodes
		for k := 0; k <= 63; k++ {
			chain = append(chain, x)
			x = PlusI(x, x)
		}
		top := chain[63]
		if top.Interned() == raw || !top.Live() {
			t.Fatalf("raw=%v: the chain's top is interned=%v, live=%v", raw, top.Interned(), top.Live())
		}
		for _, c := range []struct {
			e    *Expr
			want int64
		}{
			{chain[24], 1<<25 - 1},
			{chain[25], 1<<26 - 1}, // the first size the header does not hold
			{PlusI(chain[25], a), 1<<26 + 1},
			{chain[26], 1<<27 - 1},
			{chain[61], 1<<62 - 1},
			{chain[62], math.MaxInt64},
			{top, math.MaxInt64},
			{PlusI(top, top), math.MaxInt64},
			{Sum(top, chain[40]), math.MaxInt64},
		} {
			if got := c.e.Size(); got != c.want {
				t.Fatalf("raw=%v: a tree of %d nodes reads Size() %d", raw, c.want, got)
			}
		}
		if got := top.Annots(nil); len(got) != 1 {
			t.Fatalf("raw=%v: Annots of the doubling chain = %v, want {%s}", raw, got, a.Annot())
		} else if _, ok := got[a.Annot()]; !ok {
			t.Fatalf("raw=%v: Annots of the doubling chain = %v, want {%s}", raw, got, a.Annot())
		}
		if i := Intern(chain[5]); !i.Interned() || i.Size() != 1<<6-1 || i.Op() != OpPlusI {
			t.Fatalf("raw=%v: the interned chain reads %v, size %d", raw, i.Op(), i.Size())
		}
	}
}

// TestNodeMetaConcurrent: Live sets its bits in the word that also holds
// the operator, the interned flag and the size, while other goroutines
// read all four; every reader sees the header the node was built with
// and every Live answer agrees. Run with -race (CI does).
func TestNodeMetaConcurrent(t *testing.T) {
	const nodes, workers = 512, 8
	p := QueryVar("meta-p")
	type node struct {
		e        *Expr
		op       Op
		interned bool
		size     int64
		live     bool
	}
	var all []node
	for i := 0; i < nodes; i++ {
		v := TupleVar(fmt.Sprintf("meta-%d", i))
		all = append(all, []node{
			{Minus(v, p), OpMinus, true, 3, false},
			{PlusI(Minus(v, p), p), OpPlusI, true, 5, true},
			{DotM(v, Minus(p, v)), OpDotM, true, 5, false},
			{Sum(v, Minus(v, p)), OpSum, true, 5, true},
			{PlusM(v.DeepCopy(), p), OpPlusM, false, 3, true},
		}...)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range all {
				n := all[(i*7+w*nodes/workers)%len(all)]
				if n.e.Live() != n.live || n.e.Op() != n.op || n.e.Interned() != n.interned || n.e.Size() != n.size {
					t.Errorf("%s: live %v op %v interned %v size %d, want %v %v %v %d",
						n.e, n.e.Live(), n.e.Op(), n.e.Interned(), n.e.Size(), n.live, n.op, n.interned, n.size)
					return
				}
			}
		}()
	}
	wg.Wait()
}
