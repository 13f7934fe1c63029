package core

import (
	"maps"
	"math"
	"slices"
	"strconv"
	"sync/atomic"
)

// This file holds the intern table's range leaves: the variables Vars
// mints for an engine's initial rows. A range is a run of consecutive
// fresh names prefix<from> … prefix<from+n-1> of one kind with dense ids,
// and a table of its n canonical nodes. A leaf is its 48-byte node, born
// in its shard's arena like every canonical node, plus its word in the
// table: no extension record, no name string, no chain link. Var,
// LookupVar and intern resolve a name that is a registered prefix plus a
// canonical decimal index inside a range to its table entry by
// arithmetic, before any chain is probed; Annot derives the name back
// from the node's id.
//
// The leaves are not one slab of their own, and they count toward their
// shard's head load (internShard.leaves): the nodes that follow a load
// find each arena's newest chunk partly free and the heads as large as
// when leaves were chained, not fresh chunks and heads about to double
// (a slab of its own put 3 MB more node chunks into the timed region of
// the wire benchmark's bulk_scan, behind its 200 000-row load, and
// uncounted leaves put head doublings into those of bulk_scan and
// whatif_read).
//
// One canonical node per annotation: Vars registers a range under every
// shard's write lock, after probing the chains for each of its names, so
// a name some chain already links keeps that node (and is left out of
// the range); a chain insert of a variable re-reads the registry under
// its shard's lock, so a name a range holds is never linked. A
// registration appends past the lengths lookups read to, and publishes
// the lengths by atomic stores, so lookups load the registry without a
// lock.

// varRange is a run of leaves: the annotations prefix<from> …
// prefix<from+len(leaves)-1> of one kind, with the ids first …
// first+len(leaves)-1. The table is a piece of the slice Vars returned.
type varRange struct {
	prefix string
	kind   AnnotKind
	from   int
	first  uint32
	leaves []*Expr
	// names are the range's pages of names (see name), none until built.
	names atomic.Pointer[[]atomic.Pointer[string]]
}

// namePage is how many names of a range one page holds.
const namePage = 256

// name returns the name of index i of the range as a piece of its page —
// the names of namePage consecutive indices back to back in one string —
// and whether there is one: a page is built by the first call that asks
// to build it (a walk valuing many leaves), never when the range is
// minted.
func (r *varRange) name(i int, build bool) (string, bool) {
	pages := r.names.Load()
	if pages == nil {
		if !build {
			return "", false
		}
		fresh := make([]atomic.Pointer[string], (len(r.leaves)+namePage-1)/namePage)
		r.names.CompareAndSwap(nil, &fresh)
		pages = r.names.Load()
	}
	k := (i - r.from) / namePage
	start := r.from + k*namePage
	page := (*pages)[k].Load()
	if page == nil {
		if !build {
			return "", false
		}
		end := min(start+namePage, r.from+len(r.leaves))
		b := make([]byte, 0, (end-start)*len(r.prefix)+digitsBelow(end)-digitsBelow(start))
		for j := start; j < end; j++ {
			b = strconv.AppendInt(append(b, r.prefix...), int64(j), 10)
		}
		s := string(b)
		(*pages)[k].CompareAndSwap(nil, &s)
		page = (*pages)[k].Load()
	}
	off := (i-start)*len(r.prefix) + digitsBelow(i) - digitsBelow(start)
	return (*page)[off : off+len(r.prefix)+digitsBelow(i+1)-digitsBelow(i)], true
}

// digitsBelow returns how many decimal digits the numbers 0 … n-1 take:
// one each, and one more each for those of at least 10, 100, ….
func digitsBelow(n int) int {
	d := n
	for p := 10; p > 0 && p < n; p *= 10 {
		d += n - p
	}
	return d
}

// rangeKey is what a name's ranges share besides its index.
type rangeKey struct {
	prefix string
	kind   AnnotKind
}

// varRanges is the table's registry: the ranges of each key sorted by
// from (disjoint), and all of them sorted by first id. A key's ranges
// sit behind a pointer of their own, so registering a run of a key
// copies neither the map nor the other keys' lists.
type varRanges struct {
	byName map[rangeKey]*atomic.Pointer[[]*varRange]
	byID   []*varRange
}

// splitIndex splits a name into the prefix and the canonical decimal
// index it ends in — "t17" is ("t", 17) — and reports whether it ends in
// one: "t", "t05" and a run of more than 18 digits do not. The prefix
// never ends in a digit, so a name splits one way only.
func splitIndex(name string) (string, int, bool) {
	j := len(name)
	for j > 0 && name[j-1] >= '0' && name[j-1] <= '9' {
		j--
	}
	d := name[j:]
	if len(d) == 0 || len(d) > 18 || len(d) > 1 && d[0] == '0' {
		return "", 0, false
	}
	i := 0
	for k := 0; k < len(d); k++ {
		i = i*10 + int(d[k]-'0')
	}
	return name[:j], i, true
}

// isIndexed reports whether a is the annotation prefix<i> of the kind.
func isIndexed(a Annot, prefix string, kind AnnotKind, i int) bool {
	p, j, ok := splitIndex(a.Name)
	return ok && a.Kind == kind && p == prefix && j == i
}

// search returns the range of list holding x — at(r) ≤ x <
// at(r)+len(r.leaves) — or nil; list is sorted by at.
func search(list []*varRange, x int, at func(*varRange) int) *varRange {
	i, ok := slices.BinarySearchFunc(list, x, func(r *varRange, x int) int {
		if x < at(r) {
			return 1
		} else if x >= at(r)+len(r.leaves) {
			return -1
		}
		return 0
	})
	if !ok {
		return nil
	}
	return list[i]
}

// list returns the ranges of k.
func (rs *varRanges) list(k rangeKey) []*varRange {
	if rs == nil || rs.byName[k] == nil {
		return nil
	}
	return *rs.byName[k].Load()
}

// leafAt returns the leaf of index i among the ranges of one key, or nil.
func leafAt(list []*varRange, i int) *Expr {
	if r := search(list, i, func(r *varRange) int { return r.from }); r != nil {
		return r.leaves[i-r.from]
	}
	return nil
}

// leaf returns the range leaf of a, or nil if no range holds it.
func (rs *varRanges) leaf(a Annot) *Expr {
	if rs == nil {
		return nil
	}
	if prefix, i, ok := splitIndex(a.Name); ok {
		return leafAt(rs.list(rangeKey{prefix, a.Kind}), i)
	}
	return nil
}

// rangeOf returns the range of a leaf and the leaf's index in its name.
func (rs *varRanges) rangeOf(e *Expr) (*varRange, int) {
	r := search(rs.byID, int(e.id), func(r *varRange) int { return int(r.first) })
	return r, r.from + int(e.id-r.first)
}

// register publishes the runs of k, which hold ids above every range
// registered so far and indexes above every range of k; the caller
// holds every shard lock. The registry and k's list are appended in
// place (a reader reads a slice only up to its length), and the
// registry is stored first, so a leaf found by name finds its range by
// id. A registration costs its runs, and a new key a copy of the map.
func (t *internTable) register(k rangeKey, runs []*varRange) {
	out := &varRanges{}
	if rs := t.ranges.Load(); rs != nil {
		out.byName, out.byID = rs.byName, rs.byID
	}
	list := out.byName[k]
	if list == nil {
		list = new(atomic.Pointer[[]*varRange])
		list.Store(new([]*varRange))
		out.byName = maps.Clone(out.byName)
		if out.byName == nil {
			out.byName = map[rangeKey]*atomic.Pointer[[]*varRange]{}
		}
		out.byName[k] = list
	}
	out.byID = append(out.byID, runs...)
	t.ranges.Store(out)
	grown := append(*list.Load(), runs...)
	list.Store(&grown)
}

// hashIndexed is hashNode of the variable prefix<i>, continuing h, the
// header hash of the prefix, over the index's digits.
func hashIndexed(h uint64, i int) uint64 {
	var buf [20]byte
	for _, c := range strconv.AppendInt(buf[:0], int64(i), 10) {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// findIndexed walks the chain of the fingerprint h for the variable
// prefix<i> of the kind; the caller holds the shard lock.
func (s *internShard) findIndexed(h uint64, prefix string, kind AnnotKind, i int) *Expr {
	for e := *s.head(h); e != nil; e = e.next {
		if e.hash == h && e.Op() == OpVar && isIndexed(e.ext.Load().annot(), prefix, kind, i) {
			return e
		}
	}
	return nil
}

// vars returns the variables prefix<from> … prefix<from+n-1> in order. A
// name a range or a chain already holds keeps its node; each other one
// gets a leaf from its shard's arena, where every canonical node is born,
// and the leaves are registered as ranges — one per run of consecutive
// fresh names, its table a piece of the returned slice — and linked into
// no chain; each shard then doubles its heads to what its leaves count
// for. A prefix ending in a digit (its index would read as part of
// another prefix's) and a batch whose ids would pass 2³²−1 intern name
// by name, and so does a fresh name below a range of its key: a key's
// ranges are only ever appended, never re-sorted.
func (t *internTable) vars(prefix string, kind AnnotKind, from, n int) []*Expr {
	out := make([]*Expr, n)
	k := rangeKey{prefix, kind}
	rs, fresh := t.ranges.Load(), 0
	list := rs.list(k)
	for i := range out {
		if out[i] = leafAt(list, from+i); out[i] == nil {
			fresh++
		}
	}
	t.hits.Add(int64(n - fresh))
	if fresh == 0 {
		return out
	}
	byName := func() []*Expr {
		for i, e := range out {
			if e == nil {
				a := Annot{Name: prefix + strconv.Itoa(from+i), Kind: kind}
				out[i] = t.intern(OpVar, a, nil, hashNode(OpVar, a, nil))
			}
		}
		return out
	}
	if prefix != "" && prefix[len(prefix)-1] >= '0' && prefix[len(prefix)-1] <= '9' || from < 0 ||
		t.nodes.Load()+int64(fresh) > math.MaxUint32 {
		return byName()
	}
	h := hashHeader(OpVar, Annot{Name: prefix, Kind: kind})
	for i := range t.shards {
		t.shards[i].mu.Lock()
	}
	// Under every lock no node is linked and no range registered: check
	// each name against what may have come since the first look, and
	// leave a fresh one below the key's last range to byName.
	moved := t.ranges.Load() != rs
	list, last := t.ranges.Load().list(k), -1
	if len(list) > 0 {
		last = list[len(list)-1].from
	}
	var runs []*varRange
	first := uint32(t.nodes.Load()) + 1
	next, found := first, 0
	for i, e := range out {
		if e != nil {
			continue
		}
		hi := hashIndexed(h, from+i)
		s := t.shard(hi)
		if moved {
			out[i] = leafAt(list, from+i)
		}
		if out[i] == nil {
			out[i] = s.findIndexed(hi, prefix, kind, from+i)
		}
		if out[i] != nil {
			found++
		}
		if out[i] != nil || from+i < last {
			continue
		}
		s.leaves++
		leaf := s.nodes.alloc(arenaChunkLen)
		leaf.id, leaf.hash = next, hi
		leaf.setMeta(OpVar, metaInterned, 1)
		out[i] = leaf
		next++
		// The previous index was fresh too, so its id is this one's − 1.
		if r := len(runs) - 1; r >= 0 && runs[r].from+len(runs[r].leaves) == from+i {
			runs[r].leaves = out[i-len(runs[r].leaves) : i+1]
		} else {
			runs = append(runs, &varRange{prefix: prefix, kind: kind, from: from + i, first: leaf.id, leaves: out[i : i+1]})
		}
	}
	minted := int64(next - first)
	t.nodes.Add(minted)
	t.misses.Add(minted)
	t.hits.Add(int64(found))
	if len(runs) > 0 {
		t.register(k, runs)
	}
	for i := range t.shards {
		s := &t.shards[i]
		for s.n+s.leaves > internLoad<<s.level {
			s.grow()
		}
		s.mu.Unlock()
	}
	return byName()
}
