package core

import (
	"fmt"
	"math"
	"testing"
)

// TestNodeSetAndIndex: the id-indexed set and table agree with
// pointer-keyed maps over canonical nodes, Zero and raw nodes alike, and
// a number too large for a 32-bit word goes to the fallback and comes
// back whole.
func TestNodeSetAndIndex(t *testing.T) {
	var nodes []*Expr
	for i := 0; i < 300; i++ {
		v := TupleVar(fmt.Sprintf("ns%d", i))
		nodes = append(nodes, v, Minus(v, QueryVar("nsp")), PlusI(Zero(), v).DeepCopy())
	}
	nodes = append(nodes, Zero())
	var a NodeSet
	var x NodeIndex
	want := map[*Expr]uint64{}
	for i, n := range nodes {
		if _, dup := want[n]; a.Add(n) == dup || a.Add(n) {
			t.Fatalf("Add(node %d) disagrees with the map (present: %v)", i, dup)
		}
		if _, ok := x.Get(n); ok != (want[n] != 0) {
			t.Fatalf("Get(node %d) before Set = %v", i, ok)
		}
		v := uint64(i) + 1
		if i%7 == 0 {
			v += math.MaxUint32 // past what a page word holds
		}
		x.Set(n, v)
		want[n] = v
	}
	for n, v := range want {
		if got, ok := x.Get(n); !ok || got != v {
			t.Fatalf("Get(%s) = %d, %v; want %d", n, got, ok, v)
		}
	}
	if a.Len() != int64(len(want)) {
		t.Fatalf("set holds %d nodes, the map %d", a.Len(), len(want))
	}
}

// TestAnnotsAcrossTheTreeWalkThreshold: Annots walks small trees whole
// and large ones through a seen set; both name exactly the variables of
// the expression, and a tree exponential in its DAG is not walked as a
// tree.
func TestAnnotsAcrossTheTreeWalkThreshold(t *testing.T) {
	p := QueryVar("aw-p")
	e := TupleVar("aw0")
	for i := 1; e.Size() < 1<<40; i++ {
		v := TupleVar(fmt.Sprintf("aw%d", i))
		e = PlusM(Minus(e, p), DotM(Sum(e, v), p)) // doubles the tree, adds five nodes
		got := e.Annots(nil)
		if len(got) != i+2 {
			t.Fatalf("tree of %d nodes (DAG %d): %d annotations, want %d", e.Size(), e.DAGSize(), len(got), i+2)
		}
		if _, ok := got[v.Annot()]; !ok {
			t.Fatalf("tree of %d nodes: %s missing", e.Size(), v)
		}
	}
	if e.Size() <= annotsTreeWalk || e.DAGSize() > 1000 {
		t.Fatalf("tree %d, DAG %d: the history never crossed the threshold", e.Size(), e.DAGSize())
	}
}
