package core

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// This file implements hash-consing for UP[X] expressions: every
// constructor returns a canonical *Expr from a global, sharded intern
// table, so structurally equal expressions built through the
// constructors are pointer-equal. This is sound because Expr is
// immutable: a canonical node can be shared freely across rows, engines
// and goroutines. Pointer equality then makes structural comparison,
// summand deduplication and the rewrite-rule guards O(1), and turns the
// per-row expression "trees" of the paper into one global DAG whose
// memory footprint is the number of *distinct* subterms (the paper's
// Fig. 7b/8b tree-size measure is still available via Size; DAGSize and
// engine.ProvDAGSize report the interned measure).
//
// The only producer of non-interned nodes is DeepCopy, which exists so
// that the naive engine's copy-on-write configuration can keep modeling
// the paper's tree-memory behaviour. Constructors that receive a
// non-interned child deliberately build a non-interned parent (raw
// trees stay raw and are never registered in the table); Intern
// re-canonicalizes such a tree, and Minimize/Normalize do so implicitly.
//
// Fingerprints are the 64-bit structural hashes of hashNode. They are
// strong enough to shard and slot on, but they are not assumed
// collision-free: every probe compares the stored fingerprint and then
// the structure (operator, annotation and child identity) before
// declaring a hit, so a hash collision costs one more step along a
// chain, never a wrong canonical node. TestInternForcedCollision pins
// this down.
//
// Memory layout: the table is the nodes themselves. Each of the 64
// lock-striped shards is a power-of-two number of chain heads over the
// intrusive next pointer of Expr, so a chained node costs its 48 bytes
// and its share of a head word — no map entry, no bucket, nothing to
// allocate on a miss but the node — and can later be unlinked, where a
// Go map entry could only be deleted by key. The heads sit in segments
// that a doubling appends to and never copies (see grow). A sum of two
// is stored as a binary node is, its operands in the node; a variable
// and a larger sum add a 32-byte extension record. The leaves Vars mints
// for initial rows are chained nowhere: a leaf costs its 48 bytes, a
// word of its range's table and its share of a head word, its name
// resolved by arithmetic (see leaves.go). Canonical nodes are immortal
// (the table is append-only for the process lifetime), hence ideal arena
// tenants: each shard slab-allocates its nodes and its extension records
// from fixed-size chunks, so interning is a bump-pointer step and the GC
// tracks a thousand nodes per allocation.

// internShardCount is the number of lock stripes of the intern table.
// Power of two; 64 stripes keep contention negligible at GOMAXPROCS
// well beyond typical core counts.
const internShardCount = 64

// arenaChunkLen is the number of nodes per slab chunk, extChunkLen the
// number of extension records: one node in seventeen has one over the
// bulk_scan workload's updates, so their chunks are smaller, and so is
// each shard's unused tail of them.
const (
	arenaChunkLen = 1024
	extChunkLen   = 16
)

// internLoad is the number of nodes per chain head at which a shard
// doubles its heads, splitting every chain under its write lock. A
// chain step is a cache miss on another node, a head word 8 bytes: at 1
// a probe is a tenth faster for 8 bytes a node more, at 4 a fifth slower
// for 4 bytes less (BenchmarkInternCold has the table).
const internLoad = 2

// segLen is the number of chain heads per segment (the first one serves
// the doublings from 8 heads too).
const segLen = 256

// arena bump-allocates immortal values from fixed-size chunks. Chunks
// are never re-allocated or copied: published pointers stay valid (the
// values embed atomic fields and must never move). All access happens
// under the owning shard's write lock.
type arena[T any] struct {
	free []T // unused tail of the current chunk
}

func (a *arena[T]) alloc(chunk int) *T {
	if len(a.free) == 0 {
		a.free = make([]T, chunk)
	}
	v := &a.free[0]
	a.free = a.free[1:]
	return v
}

type internShard struct {
	mu sync.RWMutex
	// Head i, of the 2^level, starts the chain of every canonical node
	// whose slot bits (see head) are i; it is segs[i/segLen][i%segLen].
	segs  []*[segLen]*Expr
	level uint
	n     int // nodes linked
	// leaves counts the range leaves born in this shard (leaves.go).
	// They are linked nowhere but count toward the load at which the
	// heads double, so the heads grow where they grew when leaves were
	// chained, and a doubling lands in the same stretch of interning.
	leaves int
	nodes  arena[Expr]
	exts   arena[exprExt]
}

type internTable struct {
	shards [internShardCount]internShard
	ranges atomic.Pointer[varRanges] // the leaves vars minted (leaves.go)
	nodes  atomic.Int64
	hits   atomic.Int64
	misses atomic.Int64
}

var interns = newInternTable()

func newInternTable() *internTable {
	t := &internTable{}
	for i := range t.shards {
		t.shards[i].segs, t.shards[i].level = []*[segLen]*Expr{new([segLen]*Expr)}, 3
	}
	return t
}

// mix folds the high bits of a fingerprint into the low ones, so that
// shard and slot choice are not just the low bits of the FNV state: the
// shard is the low six bits of the result, the slot the bits above them.
func mix(h uint64) uint64 { return h ^ h>>32 }

// shard returns the lock stripe of a fingerprint. Callers compute it
// once per constructor call and reuse it across the read probe and the
// write path.
func (t *internTable) shard(h uint64) *internShard {
	return &t.shards[mix(h)&(internShardCount-1)]
}

// head returns the chain head slot of a fingerprint; the caller holds
// the shard lock.
func (s *internShard) head(h uint64) **Expr {
	return s.slot(mix(h) >> 6 & (1<<s.level - 1))
}

func (s *internShard) slot(i uint64) **Expr { return &s.segs[i/segLen][i%segLen] }

// find walks the fingerprint's chain for the canonical node (op, ann,
// kids); the caller holds the shard lock. Children are compared by
// identity: interned nodes only ever hold canonical children, so
// pointer comparison is exact structural comparison here.
func (s *internShard) find(op Op, ann Annot, kids []*Expr, h uint64) *Expr {
	for e := *s.head(h); e != nil; e = e.next {
		if e.hash == h && e.Op() == op && (op != OpVar || e.Annot() == ann) && slices.Equal(e.Children(), kids) {
			return e
		}
	}
	return nil
}

// findBinary is find for a binary node given its children directly, so
// the probe reads nothing but the chain's nodes, from its first node e
// on (small enough to inline into both of internBinary's probes).
func findBinary(e *Expr, op Op, l, r *Expr, h uint64) *Expr {
	for ; e != nil; e = e.next {
		if e.hash == h && e.Op() == op && e.lr[0] == l && e.lr[1] == r {
			return e
		}
	}
	return nil
}

// grow doubles the heads: it appends segments for the upper half and
// moves each node of chain i whose next slot bit is set to chain
// i + 2^level, so no head is copied; the caller holds the write lock.
func (s *internShard) grow() {
	half := uint64(1) << s.level
	for i := max(half, segLen); i < 2*half; i += segLen {
		s.segs = append(s.segs, new([segLen]*Expr))
	}
	s.level++
	for i := uint64(0); i < half; i++ {
		lo, hi := s.slot(i), s.slot(i+half)
		e := *lo
		for *lo = nil; e != nil; {
			next, to := e.next, lo
			if mix(e.hash)>>6&half != 0 {
				to = hi
			}
			e.next, *to = *to, e
			e = next
		}
	}
}

// insert links a fresh canonical node under the fingerprint h and
// returns it for the caller to fill in its children; the caller holds
// the write lock and has just failed to find the node.
func (s *internShard) insert(t *internTable, op Op, size int64, h uint64) *Expr {
	if s.n+s.leaves >= internLoad<<s.level {
		s.grow()
	}
	n := s.nodes.alloc(arenaChunkLen)
	n.id, n.hash = t.nextID(), h
	n.setMeta(op, metaInterned, size)
	to := s.head(h)
	n.next, *to = *to, n
	s.n++
	return n
}

// intern returns the canonical node for (op, ann, kids) under the
// fingerprint h, inserting a fresh node on first sight. Every kid must
// already be canonical; on a miss the kids slice of a sum of three or
// more is adopted by the table and must not be mutated by the caller.
func (t *internTable) intern(op Op, ann Annot, kids []*Expr, h uint64) *Expr {
	if op >= OpPlusI && op <= OpDotM || op == OpSum && len(kids) == 2 {
		return t.internBinary(op, kids[0], kids[1], h)
	}
	if op == OpVar {
		if e := t.ranges.Load().leaf(ann); e != nil {
			t.hits.Add(1)
			return e
		}
	}
	s := t.shard(h)
	s.mu.RLock()
	e := s.find(op, ann, kids, h)
	s.mu.RUnlock()
	if e != nil {
		t.hits.Add(1)
		return e
	}
	return t.internMiss(s, op, ann, kids, h)
}

// internMiss is intern behind a failed read probe: one chain walk under
// the write lock — another goroutine may have interned the node since the
// probe, and only the winner takes an arena slot, so the canonical pointer
// stays unique; for a variable also a look at the ranges, which vars
// registers only while holding every lock — then the insert.
func (t *internTable) internMiss(s *internShard, op Op, ann Annot, kids []*Expr, h uint64) *Expr {
	size := int64(1)
	for _, k := range kids {
		size = addSize(size, k.Size())
	}
	s.mu.Lock()
	e := s.find(op, ann, kids, h)
	if e == nil && op == OpVar {
		e = t.ranges.Load().leaf(ann)
	}
	if e != nil {
		s.mu.Unlock()
		t.hits.Add(1)
		return e
	}
	x := s.exts.alloc(extChunkLen)
	x.set(op, ann, kids)
	n := s.insert(t, op, size, h)
	n.ext.Store(x)
	s.mu.Unlock()
	t.misses.Add(1)
	return n
}

// nextID counts the new canonical node and returns its dense id. The
// kids of the node being interned were counted before it, so ids grow
// from the leaves up. Past 2³²−1 nodes (≈ 400 GB of them) a node gets
// id 0 and is simply never memoised.
func (t *internTable) nextID() uint32 {
	if n := t.nodes.Add(1); n <= math.MaxUint32 {
		return uint32(n)
	}
	return 0
}

// LookupVar returns the canonical node of the basic annotation a if
// one has been interned, nil otherwise. Unlike Var it never inserts: a
// what-if naming an annotation the database has never seen must not
// grow the immortal table. A miss looks at the ranges again under the
// shard's lock: a range whose ids a caller may already have counted
// (upstruct.Dead) is registered before that lock is released.
func LookupVar(a Annot) *Expr {
	if e := interns.ranges.Load().leaf(a); e != nil {
		return e
	}
	h := hashNode(OpVar, a, nil)
	s := interns.shard(h)
	s.mu.RLock()
	e := s.find(OpVar, a, nil, h)
	if e == nil {
		e = interns.ranges.Load().leaf(a)
	}
	s.mu.RUnlock()
	return e
}

// Lookup returns the canonical node structurally equal to e — e itself
// if it is canonical — or nil if none has been interned. Like LookupVar
// it never inserts.
func Lookup(e *Expr) *Expr {
	if e.Interned() {
		return e
	}
	if e.Op() == OpVar {
		return LookupVar(e.Annot())
	}
	s := interns.shard(e.hash)
	s.mu.RLock()
	defer s.mu.RUnlock()
	for n := *s.head(e.hash); n != nil; n = n.next {
		if n.hash == e.hash && n.Equal(e) {
			return n
		}
	}
	return nil
}

// internBinary returns the canonical node for op over the canonical
// children l and r under the fingerprint h, interning on first sight.
// The shard is resolved once for both the hit probe and the write path,
// and neither allocates: the operands are stored in the node.
func (t *internTable) internBinary(op Op, l, r *Expr, h uint64) *Expr {
	s := t.shard(h)
	s.mu.RLock()
	e := findBinary(*s.head(h), op, l, r, h)
	s.mu.RUnlock()
	if e != nil {
		t.hits.Add(1)
		return e
	}

	s.mu.Lock()
	if e := findBinary(*s.head(h), op, l, r, h); e != nil {
		s.mu.Unlock()
		t.hits.Add(1)
		return e
	}
	n := s.insert(t, op, addSize(1, addSize(l.Size(), r.Size())), h)
	n.lr = [2]*Expr{l, r}
	s.mu.Unlock()
	t.misses.Add(1)
	return n
}

// Interned reports whether e is a canonical node of the intern table
// (true for everything built through the constructors; false only for
// DeepCopy results and their enclosing raw trees).
func (e *Expr) Interned() bool { return e.meta.Load()&metaInterned != 0 }

// Intern returns the canonical representative of e: e itself if it is
// already canonical, otherwise the interned node of the identical
// structure, interning bottom-up. The cost is linear in the number of
// non-canonical nodes reachable from e.
func Intern(e *Expr) *Expr {
	if e == nil || e.Interned() {
		return e
	}
	switch e.Op() {
	case OpZero:
		return zeroExpr
	case OpVar:
		return Var(e.Annot())
	}
	kids := make([]*Expr, len(e.Children()))
	for i, k := range e.Children() {
		kids[i] = Intern(k)
	}
	// Interning children preserves structure, hence the structural hash.
	return interns.intern(e.Op(), Annot{}, kids, e.hash)
}

// InternTableStats is a snapshot of the global intern table counters.
type InternTableStats struct {
	// Nodes is the number of canonical nodes resident in the table —
	// the memory actually held by all interned provenance in the
	// process (the DAG measure), as opposed to the tree sizes reported
	// by Expr.Size.
	Nodes int64
	// Hits counts constructor calls answered with an existing canonical
	// node; Misses counts calls that inserted a new one.
	Hits, Misses int64
}

// InternStats returns the current intern table counters.
func InternStats() InternTableStats {
	return InternTableStats{
		Nodes:  interns.nodes.Load(),
		Hits:   interns.hits.Load(),
		Misses: interns.misses.Load(),
	}
}
