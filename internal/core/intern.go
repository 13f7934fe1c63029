package core

import (
	"math"
	"slices"
	"strconv"
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
// lock-striped shards is a power-of-two array of chain heads over the
// intrusive next pointer of Expr, so a canonical node costs its 64
// bytes and its share of a head word — no map entry, no bucket, nothing
// to allocate on a miss but the node — and can later be unlinked, where
// a Go map entry could only be deleted by key. Canonical nodes are
// immortal (the table is append-only for the process lifetime), hence
// ideal arena tenants: each shard slab-allocates its nodes, and the
// extension records of its variables and sums, from fixed-size chunks,
// so interning is a bump-pointer step and the GC tracks a thousand
// nodes per allocation.

// internShardCount is the number of lock stripes of the intern table.
// Power of two; 64 stripes keep contention negligible at GOMAXPROCS
// well beyond typical core counts.
const internShardCount = 64

// arenaChunkLen is the number of values per slab chunk.
const arenaChunkLen = 1024

// internLoad is the number of nodes per chain head at which a shard
// doubles its head array, relinking every node under its write lock. A
// chain step is a cache miss on another node, a head word 8 bytes
// allocated twice over by the doublings: at 2 a probe costs what it
// costs at 1 for 14 bytes a node less, at 4 it is a quarter slower for
// 7 more (BenchmarkInternCold has the table).
const internLoad = 2

// arena bump-allocates immortal values from fixed-size chunks. Chunks
// are never re-allocated or copied: published pointers stay valid (the
// values embed atomic fields and must never move). All access happens
// under the owning shard's write lock.
type arena[T any] struct {
	free []T // unused tail of the current chunk
}

func (a *arena[T]) alloc() *T {
	if len(a.free) == 0 {
		a.free = make([]T, arenaChunkLen)
	}
	v := &a.free[0]
	a.free = a.free[1:]
	return v
}

type internShard struct {
	mu sync.RWMutex
	// heads[slot(h)] starts the chain of every canonical node whose
	// fingerprint falls in the slot; len(heads) is a power of two.
	heads []*Expr
	n     int // nodes linked
	nodes arena[Expr]
	exts  arena[exprExt]
}

type internTable struct {
	shards [internShardCount]internShard
	nodes  atomic.Int64
	hits   atomic.Int64
	misses atomic.Int64
}

var interns = newInternTable()

func newInternTable() *internTable {
	t := &internTable{}
	for i := range t.shards {
		t.shards[i].heads = make([]*Expr, 8)
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
	return &s.heads[mix(h)>>6&uint64(len(s.heads)-1)]
}

// find walks the fingerprint's chain for the canonical node (op, ann,
// kids); the caller holds the shard lock. Children are compared by
// identity: interned nodes only ever hold canonical children, so
// pointer comparison is exact structural comparison here.
func (s *internShard) find(op Op, ann Annot, kids []*Expr, h uint64) *Expr {
	for e := *s.head(h); e != nil; e = e.next {
		if e.hash == h && e.op == op && (op != OpVar || e.Annot() == ann) && slices.Equal(e.Children(), kids) {
			return e
		}
	}
	return nil
}

// findBinary is find for a binary node given its children directly, so
// the probe reads nothing but the chain's nodes.
func (s *internShard) findBinary(op Op, l, r *Expr, h uint64) *Expr {
	for e := *s.head(h); e != nil; e = e.next {
		if e.hash == h && e.op == op && e.lr[0] == l && e.lr[1] == r {
			return e
		}
	}
	return nil
}

// headsFor is the head count a shard doubling from 8 at internLoad nodes
// per head has reached once it holds n nodes.
func headsFor(n int) int {
	l := 8
	for n > internLoad*l {
		l *= 2
	}
	return l
}

// relink moves every node onto a head array of the given size; the
// caller holds the write lock.
func (s *internShard) relink(size int) {
	old := s.heads
	s.heads = make([]*Expr, size)
	for _, e := range old {
		for e != nil {
			next, to := e.next, s.head(e.hash)
			e.next, *to = *to, e
			e = next
		}
	}
}

// insert links a fresh canonical node under the fingerprint h and
// returns it for the caller to fill in its children; the caller holds
// the write lock and has just failed to find the node.
func (s *internShard) insert(t *internTable, op Op, size int64, h uint64) *Expr {
	if s.n >= internLoad*len(s.heads) {
		s.relink(2 * len(s.heads))
	}
	n := s.nodes.alloc()
	n.op, n.interned, n.id, n.size, n.hash = op, true, t.nextID(), size, h
	to := s.head(h)
	n.next, *to = *to, n
	s.n++
	return n
}

// intern returns the canonical node for (op, ann, kids) under the
// fingerprint h, inserting a fresh node on first sight. Every kid must
// already be canonical; on a miss a sum's kids slice is adopted by the
// table and must not be mutated by the caller.
func (t *internTable) intern(op Op, ann Annot, kids []*Expr, h uint64) *Expr {
	if op >= OpPlusI && op <= OpDotM {
		return t.internBinary(op, kids[0], kids[1], h)
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

// internMiss is intern behind a failed read probe, and the whole of it
// for a node expected to be new: one chain walk under the write lock —
// another goroutine may have interned the node since the probe, and only
// the winner takes an arena slot, so the canonical pointer stays unique —
// then the insert.
func (t *internTable) internMiss(s *internShard, op Op, ann Annot, kids []*Expr, h uint64) *Expr {
	size := int64(1)
	for _, k := range kids {
		size += k.size
	}
	s.mu.Lock()
	if e := s.find(op, ann, kids, h); e != nil {
		s.mu.Unlock()
		t.hits.Add(1)
		return e
	}
	x := s.exts.alloc()
	x.ann, x.kids = ann, kids
	n := s.insert(t, op, size, h)
	n.ext.Store(x)
	s.mu.Unlock()
	t.misses.Add(1)
	return n
}

// vars interns the variables prefix<from> … prefix<from+n-1> as one batch
// and returns them in order. The names are hashed first, so every shard's
// head array is sized once for the nodes it is about to take instead of
// relinking them at each doubling on the way; each name then costs one
// chain walk under the write lock. Sizes are headsFor's: a shard that
// took fewer nodes than counted (names interned before) is cut back, so
// the table ends as single interns would leave it.
func (t *internTable) vars(prefix string, kind AnnotKind, from, n int) []*Expr {
	annots, hs, out := make([]Annot, n), make([]uint64, n), make([]*Expr, n)
	var per [internShardCount]int
	for i := range annots {
		var buf [24]byte
		annots[i] = Annot{Name: string(strconv.AppendInt(append(buf[:0], prefix...), int64(from+i), 10)), Kind: kind}
		hs[i] = hashNode(OpVar, annots[i], nil)
		per[mix(hs[i])&(internShardCount-1)]++
	}
	resize := func(ahead bool) {
		for i := range t.shards {
			s := &t.shards[i]
			s.mu.Lock()
			want := headsFor(s.n)
			if ahead {
				want = max(headsFor(s.n+per[i]), len(s.heads))
			}
			if want != len(s.heads) && per[i] > 0 {
				s.relink(want)
			}
			s.mu.Unlock()
		}
	}
	resize(true)
	for i, a := range annots {
		out[i] = t.internMiss(t.shard(hs[i]), OpVar, a, nil, hs[i])
	}
	resize(false)
	return out
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
// grow the immortal table.
func LookupVar(a Annot) *Expr {
	h := hashNode(OpVar, a, nil)
	s := interns.shard(h)
	s.mu.RLock()
	e := s.find(OpVar, a, nil, h)
	s.mu.RUnlock()
	return e
}

// Lookup returns the canonical node structurally equal to e — e itself
// if it is canonical — or nil if none has been interned. Like LookupVar
// it never inserts.
func Lookup(e *Expr) *Expr {
	if e.interned {
		return e
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
	e := s.findBinary(op, l, r, h)
	s.mu.RUnlock()
	if e != nil {
		t.hits.Add(1)
		return e
	}

	s.mu.Lock()
	if e := s.findBinary(op, l, r, h); e != nil {
		s.mu.Unlock()
		t.hits.Add(1)
		return e
	}
	n := s.insert(t, op, 1+l.size+r.size, h)
	n.lr = [2]*Expr{l, r}
	s.mu.Unlock()
	t.misses.Add(1)
	return n
}

// Interned reports whether e is a canonical node of the intern table
// (true for everything built through the constructors; false only for
// DeepCopy results and their enclosing raw trees).
func (e *Expr) Interned() bool { return e.interned }

// Intern returns the canonical representative of e: e itself if it is
// already canonical, otherwise the interned node of the identical
// structure, interning bottom-up. The cost is linear in the number of
// non-canonical nodes reachable from e.
func Intern(e *Expr) *Expr {
	if e == nil || e.interned {
		return e
	}
	switch e.op {
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
	return interns.intern(e.op, Annot{}, kids, e.hash)
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
