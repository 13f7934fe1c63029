package core

// White-box tests of the hash-consing layer: canonicalization through
// the constructors, collision handling inside the intern table, raw
// (DeepCopy) trees staying out of the table, and the memoized
// Minimize/Normalize results. The concurrency of the sharded table is
// additionally exercised under -race by TestInternConcurrent.

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestInternPointerEquality: structurally equal expressions constructed
// independently are the same canonical node (the acceptance criterion
// of the interning layer).
func TestInternPointerEquality(t *testing.T) {
	build := func() *Expr {
		return PlusM(
			Minus(TupleVar("ia"), QueryVar("ip")),
			DotM(Sum(TupleVar("ib"), TupleVar("ic")), QueryVar("ip")),
		)
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("independently constructed equal expressions are distinct nodes: %p vs %p", a, b)
	}
	if !a.Interned() {
		t.Fatal("constructor result not interned")
	}
	if a.Child(0) != Minus(TupleVar("ia"), QueryVar("ip")) {
		t.Fatal("subterm not canonical")
	}
	// Different structure must stay different.
	if build() == PlusM(Minus(TupleVar("ia"), QueryVar("ip")), DotM(Sum(TupleVar("ic"), TupleVar("ib")), QueryVar("ip"))) {
		t.Fatal("differently ordered sums interned to the same node")
	}
}

// TestInternForcedCollision: nodes with identical fingerprints but
// different structure must coexist in one bucket, each canonical for
// its own structure — the table compares structurally on collision
// instead of trusting the 64-bit hash.
func TestInternForcedCollision(t *testing.T) {
	tab := newInternTable()
	const h = uint64(0xdecafbadc0ffee)
	a1 := tab.intern(OpVar, TupleAnnot("collision-a"), nil, h)
	b1 := tab.intern(OpVar, TupleAnnot("collision-b"), nil, h)
	if a1 == b1 {
		t.Fatal("colliding nodes with different structure interned to one node")
	}
	if a2 := tab.intern(OpVar, TupleAnnot("collision-a"), nil, h); a2 != a1 {
		t.Fatal("re-interning after a collision lost the canonical node")
	}
	if b2 := tab.intern(OpVar, TupleAnnot("collision-b"), nil, h); b2 != b1 {
		t.Fatal("re-interning the colliding node lost its canonical node")
	}
	// A composite colliding with a leaf: same fingerprint, different
	// arity — must also stay distinct.
	c1 := tab.intern(OpPlusI, Annot{}, []*Expr{a1, b1}, h)
	if c1 == a1 || c1 == b1 {
		t.Fatal("composite collided into a leaf node")
	}
	if c2 := tab.intern(OpPlusI, Annot{}, []*Expr{a1, b1}, h); c2 != c1 {
		t.Fatal("re-interning the colliding composite lost its canonical node")
	}
	sh := tab.shard(h)
	chain := 0
	for e := *sh.head(h); e != nil; e = e.next {
		chain++
	}
	if chain != 3 || sh.n != 3 {
		t.Fatalf("collision chain holds %d of the shard's %d nodes, want all three on one chain", chain, sh.n)
	}
	// Many more colliding nodes than the shard has slots: every insert
	// past the load factor rehashes with the whole collision chain in
	// place, and no rehash may drop, duplicate or confuse a node.
	const more = 200
	slots := 1 << sh.level
	for i := 0; i < more; i++ {
		tab.intern(OpVar, TupleAnnot(fmt.Sprintf("collision-%d", i)), nil, h)
	}
	if 1<<sh.level <= slots || sh.n != 3+more {
		t.Fatalf("shard holds %d nodes over %d slots (was %d): the collisions did not force a rehash", sh.n, 1<<sh.level, slots)
	}
	for i := 0; i < more; i++ {
		a := TupleAnnot(fmt.Sprintf("collision-%d", i))
		n := tab.intern(OpVar, a, nil, h)
		if n.Annot() != a {
			t.Fatalf("rehashed chain lost node %d", i)
		}
	}
	if tab.intern(OpVar, TupleAnnot("collision-a"), nil, h) != a1 || tab.intern(OpVar, TupleAnnot("collision-b"), nil, h) != b1 ||
		tab.intern(OpPlusI, Annot{}, []*Expr{a1, b1}, h) != c1 {
		t.Fatal("a rehash changed the canonical node of a colliding leaf or composite")
	}
	if sh.n != 3+more || tab.nodes.Load() != 3+more {
		t.Fatalf("re-interning grew the table to %d nodes, want %d", sh.n, 3+more)
	}
}

// TestInternRawTreesStayRaw: DeepCopy results and expressions built on
// top of them are not interned (the naive copy-on-write engine models
// the paper's tree memory), and Intern restores the canonical node.
func TestInternRawTreesStayRaw(t *testing.T) {
	e := PlusM(TupleVar("ra"), DotM(Sum(TupleVar("rb"), TupleVar("rc")), QueryVar("rp")))
	c := e.DeepCopy()
	if c.Interned() || c == e {
		t.Fatal("DeepCopy returned an interned node")
	}
	parent := PlusI(c, QueryVar("rp"))
	if parent.Interned() {
		t.Fatal("parent of a raw node must be raw")
	}
	if got := Intern(c); got != e {
		t.Fatalf("Intern(DeepCopy(e)) = %p, want the canonical %p", got, e)
	}
	if got := Intern(parent); got != PlusI(e, QueryVar("rp")) || !got.Interned() {
		t.Fatal("Intern did not canonicalize the raw parent")
	}
	if !e.Equal(c) || !c.Equal(e) {
		t.Fatal("raw/interned structural equality broken")
	}
}

// TestSumOfTwoHoldsItsOperands: a sum of two keeps its operands in the
// node, as a binary node does, and carries no extension record until a
// memo needs one; its fingerprint, its flattening into a larger sum and
// its round trip through DeepCopy and Intern are a sum's. A variable's
// annotation survives the extension record's shared words, whatever its
// kind.
func TestSumOfTwoHoldsItsOperands(t *testing.T) {
	a, b, c := TupleVar("s2a"), TupleVar("s2b"), QueryVar("s2p")
	s := Sum(a, b)
	if s.Op() != OpSum || s.ext.Load() != nil || s.Left() != a || s.Right() != b || !slices.Equal(s.Children(), []*Expr{a, b}) {
		t.Fatalf("Sum(a, b) = %v with children %v", s, s.Children())
	}
	if s != Sum(a, b) || s.Hash() != hashNode(OpSum, Annot{}, []*Expr{a, b}) || s.Size() != 3 || s.String() != "s2a + s2b" {
		t.Fatalf("Sum(a, b) is not one canonical sum: %v, size %d", s, s.Size())
	}
	if raw := s.DeepCopy(); raw.Interned() || Intern(raw) != s || Sum(raw.Child(0), b).Interned() || Intern(Sum(raw.Child(0), b)) != s {
		t.Fatal("a raw sum of two does not canonicalize to the sum")
	}
	if Minimize(s) != s || s.ext.Load() == nil || !slices.Equal(s.Children(), []*Expr{a, b}) {
		t.Fatal("the memo Minimize left hid the operands of a sum of two")
	}
	three := Sum(s, c)
	if three.ext.Load() == nil || !slices.Equal(three.Children(), []*Expr{a, b, c}) || three != Sum(a, b, c) {
		t.Fatalf("Sum(Sum(a, b), c) = %v", three)
	}
	for _, an := range []Annot{TupleAnnot(""), QueryAnnot("p"), {Name: "kind-seven", Kind: 7}} {
		if v := Var(an); v.Annot() != an || !v.IsVar(an) || v.DeepCopy().Annot() != an {
			t.Fatalf("Var(%q, %v).Annot() = %+v", an.Name, an.Kind, v.Annot())
		}
	}
}

// TestInternConcurrent hammers the sharded table from many goroutines
// building the same expressions — enough distinct ones that every shard
// doubles its heads several times while the others are probing it
// — with LookupVar readers beside them; every goroutine must observe
// the same canonical pointers, and a lookup either misses or answers
// the node the writers got. Run with -race (CI does).
func TestInternConcurrent(t *testing.T) {
	const workers, vars = 8, 4096
	grown := func() (n int) {
		for i := range interns.shards {
			s := &interns.shards[i]
			s.mu.RLock()
			n += 1 << s.level
			s.mu.RUnlock()
		}
		return n
	}
	slots := grown()
	results := make([][]*Expr, workers)
	var wg, readers sync.WaitGroup
	var done atomic.Bool
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; !done.Load(); i = (i + 1) % vars {
				a := TupleAnnot(fmt.Sprintf("cc%d", i))
				if v := LookupVar(a); v != nil && (v.Annot() != a || v != TupleVar(a.Name)) {
					t.Errorf("LookupVar(%s) answered %s at %p, the constructor %p", a, v, v, TupleVar(a.Name))
					return
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]*Expr, 0, vars)
			for i := 0; i < vars; i++ {
				v := TupleVar(fmt.Sprintf("cc%d", i))
				e := PlusM(Minus(v, QueryVar("cp")), DotM(v, QueryVar("cp")))
				if i%64 == 0 {
					e = Minimize(e)
				}
				out = append(out, e)
			}
			results[w] = out
		}()
	}
	wg.Wait()
	done.Store(true)
	readers.Wait()
	for w := 1; w < workers; w++ {
		for i := range results[0] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d observed a different canonical node at %d", w, i)
			}
		}
	}
	if now := grown(); now < 2*slots && now < 4*vars/internLoad {
		t.Fatalf("the table went from %d to %d slots: no growth was in flight", slots, now)
	}
}

// internColdNodes interns n distinct binary nodes over the given leaves
// in tab, as the constructors would, and appends them to into.
func internColdNodes(tab *internTable, leaves []*Expr, n int, into []*Expr) []*Expr {
	ops := [...]Op{OpPlusI, OpMinus, OpPlusM, OpDotM}
	for i := 0; i < n; i++ {
		op, l, r := ops[i%4], leaves[i/4%len(leaves)], leaves[i/4/len(leaves)]
		into = append(into, tab.internBinary(op, l, r, hashBinary(op, l.hash, r.hash)))
	}
	return into
}

// internColdLeaves returns 600 variables of the process table: a node
// does not care which table holds its children, so the table under
// measurement starts empty and every byte it allocates is counted.
func internColdLeaves() []*Expr {
	leaves := make([]*Expr, 600)
	for i := range leaves {
		leaves[i] = TupleVar(fmt.Sprintf("cold%d", i))
	}
	return leaves
}

// TestInternBytesPerNode: a canonical binary node costs its 48 bytes
// and its share of a chain head — no table entry beside it, no operand
// slice, no allocation of its own — and finding it again costs nothing.
// The count starts at an empty table and includes everything the table
// allocates: the nodes, the unused tail of each shard's newest chunk
// and the head segments, which are never copied, so none is outgrown:
// 4 to 8 bytes a node depending on how long ago the shards last doubled
// — 55.1 at 500 000, at 1.9 nodes per slot; 60.4 at BenchmarkInternCold's
// 300 000, at 1.1 and with a third of a chunk per shard unused, where
// 64-byte nodes over head arrays copied at each doubling read 76.1 and
// 84.9, and the two Go maps over 96-byte nodes before them 184.1 and
// 1.01 mallocs. That second size is the benchmark's one op, held to the
// B/op it read when its ceiling was set (25 455 232) plus a tenth.
func TestInternBytesPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates shadow memory per access")
	}
	leaves := internColdLeaves()
	for _, c := range []struct {
		n        int
		maxBytes float64
	}{{500000, 60}, {internColdN, 25455232 * 1.1 / internColdN}} {
		nodes := make([]*Expr, 0, c.n)
		var tab *internTable
		measure := func(f func()) (bytes, mallocs float64) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			return float64(after.TotalAlloc-before.TotalAlloc) / float64(c.n), float64(after.Mallocs-before.Mallocs) / float64(c.n)
		}
		bytes, mallocs := measure(func() {
			tab = newInternTable()
			nodes = internColdNodes(tab, leaves, c.n, nodes)
		})
		t.Logf("%d fresh binary nodes: %.1f B and %.4f mallocs per node", c.n, bytes, mallocs)
		if bytes > c.maxBytes || mallocs > 0.01 {
			t.Fatalf("one of %d fresh binary nodes costs %.1f B and %.4f mallocs, want at most %.1f B and none of its own", c.n, bytes, mallocs, c.maxBytes)
		}
		if got := tab.nodes.Load(); got != int64(c.n) {
			t.Fatalf("table holds %d nodes, want %d distinct", got, c.n)
		}
		again := make([]*Expr, 0, c.n)
		// The counters are the process's, and once a first table is garbage
		// the runtime's own goroutines allocate beside the pass now and
		// then (16 B, rarely a few KB). A pass that reads anything is
		// measured again; a table that allocates on the hit path never
		// reads exactly nothing.
		for try := 1; ; try++ {
			bytes, mallocs = measure(func() { again = internColdNodes(tab, leaves, c.n, again[:0]) })
			if bytes == 0 && mallocs == 0 {
				break
			}
			if try == 3 {
				t.Fatalf("re-interning %d nodes allocates %.0f B in %.0f mallocs on the third try too, want nothing", c.n, bytes*float64(c.n), mallocs*float64(c.n))
			}
		}
		for i := range nodes {
			if again[i] != nodes[i] {
				t.Fatalf("node %d re-interned to a different pointer", i)
			}
		}
	}
}

// internColdN is the size of BenchmarkInternCold's one op.
const internColdN = 300000

// BenchmarkInternCold is the expr-intern stage alone: every iteration
// interns 300 000 distinct binary nodes into a fresh table (all misses,
// every rehash on the way) and then finds each of them again (all
// hits). The process-global table is warm after one pass over any fixed
// history, so benchmarks that apply one (BenchmarkEngineApplyTPCC)
// cannot see what a node costs; this one sees nothing else. B/node
// counts every byte the table allocates from empty.
//
// It is also the measurement behind internLoad — medians of ten
// interleaved rounds, two vCPUs of a shared host whose speed drifts by
// a third between rounds, so read the columns against each other:
//
//	nodes/slot   B/node   ns/hit   ns/miss
//	    1         68.3     223      404
//	    2         60.4     249      472
//	    4         56.4     297      670
//	    8         54.4     419      948
//
// Of the 60.4 bytes 48 are the node, 4.4 the unused tail of each shard's
// newest chunk, 7.0 the head segments and one the first segments, the
// segment lists and the table itself. With 64-byte nodes and head
// arrays copied at each doubling the same count read 84.8 (64, 5.9 and
// 14, half of the heads outgrown) at 257 and 465 ns in the same rounds;
// linear hashing (one head split per insert) read 57.4 at 313 and 629;
// the two Go maps over 96-byte nodes with operand slices that the
// chains replaced read 184.1 bytes, 1.01 mallocs, 345 ns per hit and
// 536 per miss.
func BenchmarkInternCold(b *testing.B) {
	const n = internColdN
	nodes, leaves := make([]*Expr, 0, n), internColdLeaves()
	var miss, hit time.Duration
	var bytes uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.StartTimer()
		t0 := time.Now()
		tab := newInternTable()
		nodes = internColdNodes(tab, leaves, n, nodes[:0])
		t1 := time.Now()
		nodes = internColdNodes(tab, leaves, n, nodes[:0])
		hit += time.Since(t1)
		miss += t1.Sub(t0)
		b.StopTimer()
		runtime.ReadMemStats(&after)
		bytes += after.TotalAlloc - before.TotalAlloc
		b.StartTimer()
	}
	b.ReportMetric(float64(bytes)/float64(b.N)/n, "B/node")
	b.ReportMetric(float64(miss.Nanoseconds())/float64(b.N)/n, "ns/miss")
	b.ReportMetric(float64(hit.Nanoseconds())/float64(b.N)/n, "ns/hit")
}

// TestMinimizeNormalizeMemoized: repeated canonicalization of the same
// node returns the identical pointer, and the memo survives across
// structurally equal reconstructions (they are the same node).
func TestMinimizeNormalizeMemoized(t *testing.T) {
	mk := func() *Expr {
		return PlusM(PlusI(Zero(), QueryVar("mp")), DotM(Sum(TupleVar("ma"), Zero()), QueryVar("mp")))
	}
	m1 := Minimize(mk())
	m2 := Minimize(mk())
	if m1 != m2 {
		t.Fatal("Minimize of the same canonical node returned different pointers")
	}
	if !m1.Interned() {
		t.Fatal("Minimize result not interned")
	}
	if Minimize(m1) != m1 {
		t.Fatal("Minimize not a pointer-stable fixed point")
	}
	n1 := Normalize(mk())
	if n1 != Normalize(mk()) || !n1.Interned() {
		t.Fatal("Normalize memoization broken")
	}
	if Normalize(n1) != n1 {
		t.Fatal("Normalize not a pointer-stable fixed point")
	}
	// Raw input canonicalizes to the same memoized result.
	if Minimize(mk().DeepCopy()) != m1 {
		t.Fatal("Minimize of a raw copy diverged from the canonical result")
	}
}

// TestInternStatsCounters: the table counters move in the right
// direction (exact values depend on test order, so only deltas are
// checked).
func TestInternStatsCounters(t *testing.T) {
	before := InternStats()
	v := TupleVar("stats-fresh-annotation")
	after := InternStats()
	if after.Nodes <= before.Nodes || after.Misses <= before.Misses {
		t.Fatalf("fresh node did not bump Nodes/Misses: %+v -> %+v", before, after)
	}
	_ = TupleVar("stats-fresh-annotation")
	again := InternStats()
	if again.Hits <= after.Hits {
		t.Fatalf("re-construction did not bump Hits: %+v -> %+v", after, again)
	}
	if again.Nodes != after.Nodes {
		t.Fatalf("re-construction changed Nodes: %+v -> %+v", after, again)
	}
	_ = v
}

// linked counts the nodes linked into the global table's chains.
func linked() (n int) {
	for i := range interns.shards {
		s := &interns.shards[i]
		s.mu.RLock()
		n += s.n
		s.mu.RUnlock()
	}
	return n
}

// TestVarsMintOneLeafPerName: for every index of a batch, Vars, Var,
// LookupVar and intern return one pointer — a name interned before the
// batch keeps that node — the leaf renders its name and hashes as the
// variable always did, and Vars links no node into a chain but leaves
// every shard with the heads its nodes and leaves reach by doubling. A
// second, overlapping batch finds the first one's leaves and mints only
// the rest; names outside every range resolve into none.
func TestVarsMintOneLeafPerName(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 1000, 200000} {
		for _, known := range slices.Compact([]int{0, n / 3}) {
			prefix := fmt.Sprintf("vars%dk%d_", n, known)
			annot := func(i int) Annot { return TupleAnnot(prefix + strconv.Itoa(i)) }
			before := map[int]*Expr{}
			for i := 0; i < n; i++ {
				if i%3 == 0 && i/3 < known {
					before[i] = Var(annot(i))
				}
			}
			chains, nodes := linked(), InternStats().Nodes
			vars := Vars(prefix, KindTuple, 0, n)
			if got := linked(); got != chains {
				t.Fatalf("n=%d known=%d: Vars linked %d nodes into chains", n, known, got-chains)
			}
			for i := range interns.shards {
				s := &interns.shards[i]
				s.mu.RLock()
				heads := 8
				for s.n+s.leaves > internLoad*heads {
					heads *= 2
				}
				if 1<<s.level != heads {
					t.Errorf("n=%d known=%d shard %d: %d heads for %d nodes and %d leaves; doubling reaches %d", n, known, i, 1<<s.level, s.n, s.leaves, heads)
				}
				s.mu.RUnlock()
			}
			if got := InternStats().Nodes - nodes; got != int64(n-len(before)) {
				t.Fatalf("n=%d known=%d: Vars minted %d nodes, want %d", n, known, got, n-len(before))
			}
			again := Vars(prefix, KindTuple, n/2, n)
			if got := InternStats().Nodes - nodes; got != int64(n+n/2-len(before)) || linked() != chains {
				t.Fatalf("n=%d known=%d: the overlapping batch left %d nodes, want %d", n, known, got, n+n/2-len(before))
			}
			for i := 0; i < n+n/2; i++ {
				a, v := annot(i), again[max(i-n/2, 0)]
				if i < n {
					v = vars[i]
				}
				if i >= n/2 && again[i-n/2] != v {
					t.Fatalf("n=%d known=%d: the batches disagree at %d", n, known, i)
				}
				if w, ok := before[i]; ok && v != w {
					t.Fatalf("n=%d known=%d: %s lost the node interned before the batch", n, known, a.Name)
				}
				text, kind := v.AppendAnnot(nil)
				if v != Var(a) || v != LookupVar(a) || v != interns.intern(OpVar, a, nil, hashNode(OpVar, a, nil)) ||
					v.Annot() != a || v.LeafAnnot() != a || !v.IsVar(a) || string(text) != a.Name || kind != a.Kind || v.String() != a.Name ||
					v.Hash() != hashNode(OpVar, a, nil) || !v.Interned() || v.Size() != 1 || !v.Live() {
					t.Fatalf("n=%d known=%d: variable %d is %v (%s)", n, known, i, v, text)
				}
			}
			for _, a := range []Annot{
				TupleAnnot(prefix + "05"), TupleAnnot(prefix + "-1"), TupleAnnot(prefix), TupleAnnot(prefix + "00"),
				TupleAnnot(prefix + strconv.Itoa(n+n/2)), QueryAnnot(prefix + "1"), TupleAnnot(prefix[:len(prefix)-1] + "1"),
			} {
				if v := LookupVar(a); v != nil {
					t.Fatalf("n=%d known=%d: %s of kind %v resolved to %v", n, known, a.Name, a.Kind, v)
				}
			}
		}
	}
}

// TestRangesOutOfOrderAndLeafIndex: batches of one prefix minted
// after, before and between each other (above the prefix's ranges a
// range, below them by name) each resolve their names, and LeafIndex
// reports a range leaf and a variable interned by name as the same
// (prefix, kind, i), with ok false for names that are no canonical
// index.
func TestRangesOutOfOrderAndLeafIndex(t *testing.T) {
	const prefix = "ooo_"
	ranges := map[int][]*Expr{}
	for _, from := range []int{100, 0, 200, 50, 300} {
		chains := linked()
		ranges[from] = Vars(prefix, KindTuple, from, 10)
		if got, want := linked()-chains, map[bool]int{true: 10}[from < 100]; got != want {
			t.Fatalf("the batch from %d linked %d names into chains, want %d", from, got, want)
		}
		for f, leaves := range ranges {
			for j, v := range leaves {
				a := TupleAnnot(prefix + strconv.Itoa(f+j))
				p, kind, i, ok := v.LeafIndex()
				if LookupVar(a) != v || p != prefix || kind != KindTuple || i != f+j || !ok {
					t.Fatalf("after the range from %d: %s resolves to %v, LeafIndex (%q, %v, %d, %v)", from, a.Name, LookupVar(a), p, kind, i, ok)
				}
			}
		}
	}
	for name, want := range map[string]int{"ooo_named7": 7, "ooo_named0": 0, "999999999999999999": MaxLeafIndex} {
		p, kind, i, ok := QueryVar(name).LeafIndex()
		if !ok || p+strconv.Itoa(i) != name || i != want || kind != KindQuery {
			t.Errorf("%s: LeafIndex (%q, %v, %d, %v)", name, p, kind, i, ok)
		}
	}
	for _, name := range []string{"ooo_named07", "ooo_named", "1000000000000000000", ""} {
		if _, _, _, ok := QueryVar(name).LeafIndex(); ok {
			t.Errorf("%q reads as an index", name)
		}
	}
}

// TestRangeLookupsBesideMinting: names are looked up and interned from
// several goroutines while batches mint the ranges that hold them, some
// names before their batch and some after; every goroutine must see one
// canonical node per name, and a lookup either misses or answers it, and
// name it as it was asked for. Run with -race (CI does).
func TestRangeLookupsBesideMinting(t *testing.T) {
	const batches, per, workers = 16, 512, 4
	annot := func(i int) Annot { return TupleAnnot("race_" + strconv.Itoa(i)) }
	seen := make([][]*Expr, workers)
	var wg sync.WaitGroup
	wg.Add(1 + workers)
	go func() {
		defer wg.Done()
		for b := 0; b < batches; b++ {
			Vars("race_", KindTuple, b*per, per)
		}
	}()
	for w := 0; w < workers; w++ {
		seen[w] = make([]*Expr, batches*per)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 3*batches*per; k++ {
				i := (k*7919 + w*104729) % (batches * per)
				v := LookupVar(annot(i))
				if w%2 == 0 || v == nil && k%5 == 0 {
					v = Var(annot(i))
				}
				if v == nil {
					continue
				}
				if v.LeafAnnot() != annot(i) { // a page of names built beside the others
					t.Errorf("worker %d: %s is named %s", w, annot(i).Name, v.LeafAnnot().Name)
					return
				}
				if seen[w][i] == nil {
					seen[w][i] = v
				} else if seen[w][i] != v {
					t.Errorf("worker %d saw two nodes for %s", w, annot(i).Name)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	all := Vars("race_", KindTuple, 0, batches*per)
	for w := range seen {
		for i, v := range seen[w] {
			if v != nil && v != all[i] {
				t.Fatalf("worker %d saw %p for %s, the batch answers %p", w, v, annot(i).Name, all[i])
			}
		}
	}
	for i, v := range all {
		if v != Var(annot(i)) || v.Annot() != annot(i) {
			t.Fatalf("%s is %v after the batches", annot(i).Name, v)
		}
	}
}

// BenchmarkVars mints 200 000 fresh names per op, as an engine names
// the rows of a 200 000-row load: the time, the bytes allocated, the
// bytes still live with the variables held (after a collection), and
// the mallocs, per name. Take it in a fresh process (-benchtime 1x): the
// live figure holds whatever the op leaves behind in the table.
func BenchmarkVars(b *testing.B) {
	const n = 200000
	var alloc, live, mallocs float64
	for i := 0; i < b.N; i++ {
		var before, after runtime.MemStats
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		prefix := "t" // an engine's names, the first time
		if i > 0 {
			prefix = fmt.Sprintf("bv%d_", i)
		}
		vars := Vars(prefix, KindTuple, 0, n)
		b.StopTimer()
		runtime.ReadMemStats(&after)
		alloc += float64(after.TotalAlloc - before.TotalAlloc)
		mallocs += float64(after.Mallocs - before.Mallocs)
		runtime.GC()
		runtime.ReadMemStats(&after)
		live += float64(after.HeapAlloc) - float64(before.HeapAlloc)
		runtime.KeepAlive(vars)
		b.StartTimer()
	}
	per := float64(b.N) * n
	b.ReportMetric(alloc/per, "B/leaf")
	b.ReportMetric(live/per, "live_B/leaf")
	b.ReportMetric(mallocs/per, "mallocs/leaf")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/leaf")
}
