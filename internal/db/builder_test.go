package db

import (
	"testing"
	"unsafe"
)

// TestBuilderSlices: what a Builder hands out is zeroed, capped at its
// length, disjoint, and stays where it is while later requests start
// new chunks.
func TestBuilderSlices(t *testing.T) {
	var b Builder
	if b.Pattern(0) != nil || b.Updates(0) != nil {
		t.Fatal("an empty request returns a slice")
	}
	first := b.Pattern(3)
	if len(first) != 3 || cap(first) != 3 {
		t.Fatalf("len %d cap %d, want 3 and 3", len(first), cap(first))
	}
	if len(b.terms.buf) != 3 {
		t.Fatalf("the first chunk has %d terms, want the 3 that were asked for", len(b.terms.buf))
	}
	for i := range first {
		first[i] = Const(I(int64(i)))
	}
	at := unsafe.SliceData(first)
	var all []Pattern
	for n := 1; n < 200; n++ {
		p := b.Pattern(n)
		if len(p) != n || cap(p) != n {
			t.Fatalf("len %d cap %d, want %d", len(p), cap(p), n)
		}
		for i, term := range p {
			if term.IsConst() || term.VarName() != "" || term.NotEq() != nil {
				t.Fatalf("request %d: term %d is not zero: %v", n, i, term)
			}
			p[i] = Const(I(int64(1000*n + i)))
		}
		all = append(all, p)
	}
	if unsafe.SliceData(first) != at || first[2].Value() != I(2) {
		t.Fatal("the first pattern moved or was overwritten")
	}
	for n, p := range all {
		for i, term := range p {
			if term.Value() != I(int64(1000*(n+1)+i)) {
				t.Fatalf("pattern %d term %d overwritten: %v", n+1, i, term)
			}
		}
	}
	// An append by the holder copies instead of running into the next
	// pattern.
	grown := append(all[0], Const(I(-1)))
	if all[1][0].Value() != I(2000) || unsafe.SliceData(grown) == unsafe.SliceData(all[0]) {
		t.Fatal("append wrote into the neighbouring pattern")
	}
}

// TestBuilderReset: Reset keeps the current chunk, cleared, and the
// next round is served from it without allocating; a chunk past
// slabMax is not kept.
func TestBuilderReset(t *testing.T) {
	var b Builder
	fill := func() {
		for i := 0; i < 50; i++ {
			u := &b.Updates(1)[0]
			u.Rel, u.Sel, u.Set = "R", b.Pattern(4), b.Set(4)
			u.Sel[0] = VarNotEq("x", b.Values(2)...)
			b.Transactions(1)[0].Label = "t"
		}
	}
	fill()
	b.Reset()
	fill() // the chunks have doubled past one round's need
	b.Reset()
	for i, u := range b.ups.buf {
		if u.Rel != "" || u.Sel != nil || u.Set != nil {
			t.Fatalf("update %d survives Reset: %+v", i, u)
		}
	}
	for i, term := range b.terms.buf {
		if term.VarName() != "" || term.NotEq() != nil {
			t.Fatalf("term %d survives Reset: %v", i, term)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { fill(); b.Reset() }); allocs != 0 {
		t.Fatalf("a round on a warm builder allocates %.0f times", allocs)
	}
	big := b.Pattern(slabMax + 1)
	if len(big) != slabMax+1 {
		t.Fatal(len(big))
	}
	b.Reset()
	if b.terms.buf != nil {
		t.Fatalf("Reset kept an outsized chunk of %d terms", len(b.terms.buf))
	}
}

// TestBuilderPoison: with PoisonOnReset whoever kept a slice past Reset
// reads junk that matches nothing, and the builder starts over on
// memory of its own.
func TestBuilderPoison(t *testing.T) {
	PoisonOnReset.Store(true)
	defer PoisonOnReset.Store(false)
	var b Builder
	txns, ups, sel, set, vals := b.Transactions(1), b.Updates(1), b.Pattern(2), b.Set(2), b.Values(1)
	sel[0], sel[1], set[1], vals[0] = Const(I(7)), AnyVar("x"), SetTo(S("a")), I(1)
	b.Reset()
	if txns[0].Label == "" || ups[0].Kind <= OpModify || ups[0].Rel == "" {
		t.Fatalf("not poisoned: %+v %+v", txns[0], ups[0])
	}
	for _, v := range []Value{I(7), S(""), F(0), {}} {
		if sel[0].MatchesValue(v) || sel[1].MatchesValue(v) || vals[0] == v || !set[0].Set || set[0].Val == v {
			t.Fatalf("poison matches %v: %v %v %v %v", v, sel, set, vals, v)
		}
	}
	if fresh := b.Pattern(2); fresh[0].IsConst() || fresh[1].IsConst() {
		t.Fatalf("the builder hands out poisoned memory: %v", fresh)
	}
}
