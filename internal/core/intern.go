package core

import (
	"math"
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
// strong enough to shard and bucket on, but they are not assumed
// collision-free: a bucket holds every canonical node with the same
// fingerprint and lookups compare structurally (operator, annotation
// and child identity) before declaring a hit, so a hash collision costs
// a bucket scan, never a wrong canonical node. TestInternForcedCollision
// pins this down.
//
// Memory layout: canonical nodes are immortal (the table is append-only
// for the process lifetime), which makes them ideal arena tenants. Each
// shard slab-allocates its nodes from fixed-size chunks, so interning a
// node costs one bump-pointer step instead of an individual heap object,
// and the GC tracks thousands of nodes per allocation. Collision
// overflow lists are chunked the same way (rare: they require a genuine
// 64-bit fingerprint collision), so bucket growth never re-allocates a
// slice.

// internShardCount is the number of lock stripes of the intern table.
// Power of two; 64 stripes keep contention negligible at GOMAXPROCS
// well beyond typical core counts.
const internShardCount = 64

// arenaChunkLen is the number of Expr nodes per slab chunk.
const arenaChunkLen = 1024

// exprArena bump-allocates immortal Expr nodes from fixed-size chunks.
// Chunks are never re-allocated or copied: published *Expr pointers stay
// valid (the nodes embed atomic memo fields and must never move). All
// access happens under the owning shard's write lock.
type exprArena struct {
	cur  []Expr // current chunk; len(cur) slots used, allocated lazily
	used int
}

func (a *exprArena) alloc() *Expr {
	if a.used == len(a.cur) {
		a.cur = make([]Expr, arenaChunkLen)
		a.used = 0
	}
	n := &a.cur[a.used]
	a.used++
	return n
}

// bucketChunkLen is the capacity of one collision-overflow chunk.
const bucketChunkLen = 4

// exprBucket is a chunked list of canonical nodes sharing one
// fingerprint beyond the first: appends fill the newest chunk in place
// and link a fresh chunk when full, so growth never copies.
type exprBucket struct {
	nodes [bucketChunkLen]*Expr
	n     int
	next  *exprBucket // older, always-full chunks
}

func (b *exprBucket) each(f func(*Expr) bool) *Expr {
	for c := b; c != nil; c = c.next {
		for i := 0; i < c.n; i++ {
			if f(c.nodes[i]) {
				return c.nodes[i]
			}
		}
	}
	return nil
}

type internShard struct {
	mu sync.RWMutex
	// first maps a structural fingerprint to the first canonical node
	// carrying it — the only entry in the overwhelmingly common
	// collision-free case, so a node costs one map slot, not a slice.
	first map[uint64]*Expr
	// rest holds any further canonical nodes under a fingerprint: only
	// populated by a genuine 64-bit collision.
	rest  map[uint64]*exprBucket
	arena exprArena
}

// addRest appends a colliding node to the fingerprint's overflow bucket;
// the caller holds the write lock.
func (s *internShard) addRest(h uint64, n *Expr) {
	b := s.rest[h]
	if b == nil || b.n == bucketChunkLen {
		b = &exprBucket{next: b}
		s.rest[h] = b
	}
	b.nodes[b.n] = n
	b.n++
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
		t.shards[i].first = make(map[uint64]*Expr)
		t.shards[i].rest = make(map[uint64]*exprBucket)
	}
	return t
}

func (t *internTable) shard(h uint64) *internShard {
	// Fold the high bits in so shard choice is not just the low bits of
	// the FNV state. Callers compute the shard once per constructor call
	// and reuse it across the read probe and the write path.
	return &t.shards[(h^h>>32)&(internShardCount-1)]
}

// sameNode reports whether the canonical node e represents (op, ann,
// kids). Children are compared by identity: interned nodes only ever
// hold canonical children, so pointer comparison is exact structural
// comparison here.
func sameNode(e *Expr, op Op, ann Annot, kids []*Expr) bool {
	if e.op != op || e.ann != ann || len(e.kids) != len(kids) {
		return false
	}
	for i := range kids {
		if e.kids[i] != kids[i] {
			return false
		}
	}
	return true
}

// intern returns the canonical node for (op, ann, kids) under the
// fingerprint h, inserting a fresh node on first sight. Every kid must
// already be canonical; on a miss the kids slice is adopted by the
// table and must not be mutated by the caller.
func (t *internTable) intern(op Op, ann Annot, kids []*Expr, h uint64) *Expr {
	s := t.shard(h)
	s.mu.RLock()
	e := s.find(op, ann, kids, h)
	s.mu.RUnlock()
	if e != nil {
		t.hits.Add(1)
		return e
	}

	size := int64(1)
	for _, k := range kids {
		size += k.size
	}

	s.mu.Lock()
	// Re-check under the write lock: another goroutine may have interned
	// the same node between the two lock acquisitions; only the winner
	// takes an arena slot, so the canonical pointer stays unique.
	if e := s.find(op, ann, kids, h); e != nil {
		s.mu.Unlock()
		t.hits.Add(1)
		return e
	}
	n := s.arena.alloc()
	n.op, n.id, n.ann, n.kids, n.size, n.hash, n.interned = op, t.nextID(), ann, kids, size, h, true
	if _, taken := s.first[h]; !taken {
		s.first[h] = n
	} else {
		s.addRest(h, n)
	}
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
// grow the immortal table.
func LookupVar(a Annot) *Expr {
	h := hashNode(OpVar, a, nil)
	s := interns.shard(h)
	s.mu.RLock()
	e := s.find(OpVar, a, nil, h)
	s.mu.RUnlock()
	return e
}

// find scans the fingerprint's canonical nodes for (op, ann, kids); the
// caller holds the shard lock.
func (s *internShard) find(op Op, ann Annot, kids []*Expr, h uint64) *Expr {
	if e, ok := s.first[h]; ok {
		if sameNode(e, op, ann, kids) {
			return e
		}
		if b := s.rest[h]; b != nil {
			return b.each(func(e *Expr) bool { return sameNode(e, op, ann, kids) })
		}
	}
	return nil
}

// findBinary is find for a binary node given its children directly, so
// the probe needs no kids slice; the caller holds the shard lock.
func (s *internShard) findBinary(op Op, l, r *Expr, h uint64) *Expr {
	hit := func(e *Expr) bool {
		return e.op == op && len(e.kids) == 2 && e.kids[0] == l && e.kids[1] == r
	}
	if e, ok := s.first[h]; ok {
		if hit(e) {
			return e
		}
		if b := s.rest[h]; b != nil {
			return b.each(hit)
		}
	}
	return nil
}

// internBinary returns the canonical node for op over the canonical
// children l and r under the fingerprint h, interning on first sight.
// The shard is resolved once for both the allocation-free hit probe and
// the write path, and the kids slice is only allocated after a miss.
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
	n := s.arena.alloc()
	n.op, n.id, n.kids, n.size, n.hash, n.interned = op, t.nextID(), []*Expr{l, r}, 1+l.size+r.size, h, true
	if _, taken := s.first[h]; !taken {
		s.first[h] = n
	} else {
		s.addRest(h, n)
	}
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
		return Var(e.ann)
	}
	kids := make([]*Expr, len(e.kids))
	for i, k := range e.kids {
		kids[i] = Intern(k)
	}
	// Interning children preserves structure, hence the structural hash.
	return interns.intern(e.op, e.ann, kids, e.hash)
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
