package engine

import (
	"math/bits"
	"sync/atomic"

	"hyperprov/internal/db"
)

// Row storage. Two structures back every table, both append-only and
// readable without locks:
//
//   - rowMap: an open-addressing hash table from tuple fingerprints to
//     row positions. Point lookups (pinned updates, Annotation/NF) probe
//     a contiguous array of 4-byte slots by db.Tuple.Fingerprint — no
//     Key() string is ever built on the lookup path — and disambiguate
//     64-bit collisions by comparing the probe's values with the row's
//     words. Rows are never deleted (tombstones persist), so probe
//     sequences never break and the writer-only grow path can rebuild
//     into a fresh array and publish it with a single atomic store.
//
//   - colStore: the table by position, struct-of-arrays — one
//     payload-word column per attribute and the row records, all in one
//     chunk layout (chunkOf) whose chunks are never copied, and all
//     published by one length. A row never moves (the relations only
//     grow), so its position is its name for good, and a pointer to its
//     record stays valid for good. The words are the rows' only copy of
//     their values, which readers build tuples from. Selections test
//     terms against the words before resolving any version. The versions
//     are a column of their own, in the same layout, by order of writing
//     (table.vers, mvcc.go); a row is visible from its first version on.
//
// Memory model: the writer is serialized by the write lock. It stores a
// new row's record (and a new chunk's directory, atomically) and words
// with plain writes, then the map's slot, then the length, each an
// atomic store; readers load the atomic first and only then read the
// plainly-written memory below it, a release/acquire pairing. A row's
// record and words land before either publishes it.

// rowSlots is one published generation of a rowMap: a power-of-two
// slot array probed linearly from fp & mask. A slot holds a position
// + 1, 0 being empty.
type rowSlots struct {
	mask  uint64
	slots []atomic.Uint32
}

// put stores position p of fingerprint fp in the first empty slot of
// its probe sequence.
func (tab *rowSlots) put(fp uint64, p int) {
	for i := fp & tab.mask; ; i = (i + 1) & tab.mask {
		if tab.slots[i].Load() == 0 {
			tab.slots[i].Store(uint32(p + 1))
			return
		}
	}
}

// rowMap is the fingerprint-keyed row index of a table, whose records
// and words are in cols. Readers use get concurrently with a writer's
// add; the writer is serialized by the write lock.
type rowMap struct {
	tab  atomic.Pointer[rowSlots]
	cols *colStore
}

// get returns the row stored for the tuple, or nil. Lock-free and
// allocation-free: the probe compares fingerprints first and confirms
// with the words, so a fingerprint collision costs an extra compare,
// never a wrong row.
func (m *rowMap) get(fp uint64, t db.Tuple) *row {
	tab := m.tab.Load()
	if tab == nil {
		return nil
	}
	for i := fp & tab.mask; ; i = (i + 1) & tab.mask {
		s := tab.slots[i].Load()
		if s == 0 {
			return nil
		}
		if r := m.cols.row(int(s - 1)); r.fp == fp && m.cols.holds(int(s-1), t) {
			return r
		}
	}
}

// add stores the new row at the unpublished position p (writer-only,
// under the write lock), after its record and words and before the
// table's length publishes it, so every row below that length is in the
// map already. Load is kept under 3/4 so reader probes always terminate
// at an empty slot.
func (m *rowMap) add(p int, fp uint64) {
	tab := m.tab.Load()
	if tab == nil || 4*(p+1) > 3*len(tab.slots) {
		tab = m.reserve(1)
	}
	tab.put(fp, p)
}

// reserve makes room for n ≥ 1 more rows — in the slot array doubling from 16
// under a 3/4 load reaches for that many, so a table reserved once and
// one grown row by row end up the same size — rebuilding into a fresh
// array from the records' fingerprints and publishing it. Readers
// holding the old generation still see every row inserted before; rows
// added after only land in the new one — the same
// only-eventually-visible guarantee a concurrent map store has anyway.
func (m *rowMap) reserve(n int) *rowSlots {
	old := m.tab.Load()
	size := 16
	for 4*(m.cols.len()+n) > 3*size {
		size *= 2
	}
	if old != nil && len(old.slots) >= size {
		return old
	}
	tab := &rowSlots{mask: uint64(size - 1), slots: make([]atomic.Uint32, size)}
	m.cols.eachRows(0, m.cols.len(), func(rows []row) {
		for i := range rows {
			tab.put(rows[i].fp, int(rows[i].pos))
		}
	})
	m.tab.Store(tab)
	return tab
}

// colChunkBits sizes the chunks of a column: what the write path
// allocates (and the runtime zeroes) at a time, and what a full scan
// streams through between two slice headers. Small chunks cost
// allocations and loop restarts, large ones an unused tail per column
// per table. Replaying the wire benchmark's 12 000 TPC-C transactions
// (TestApplyAllocsPerTxn's list), the whole apply allocates 4.65 kB and
// 8.2 mallocs per transaction at 2⁸ entries, 4.60 / 6.9 at 2¹⁰ and
// 4.60 / 6.5 at 2¹²; an unindexed =-constant selection walking 200 000
// words (BenchmarkBatchScan/k=8's ns_per_sel_each, medians of five
// interleaved runs that each spread by a third) takes 269 µs at 2⁸, 195
// at 2¹⁰ and 182 at 2¹². 2¹⁰ is at the bytes minimum and past the knee of
// the scan curve, and its chunks stay small-object allocations: 8 KiB of
// words, 16 KiB of versions and 24 KiB of rows, where 2¹² makes the last
// two 64 and 96 KiB.
const (
	colChunkBits    = 10
	colChunk        = 1 << colChunkBits
	colChunkMinBits = 4
	colChunkMin     = 1 << colChunkMinBits
)

// column is one append-only column of a table: an attribute's db.Value
// payload words (the kind is the attribute's, so it is not stored), the
// rows' records or their versions. Elements
// live in chunks that are never copied or moved once allocated; a new
// chunk is published through a directory one entry longer, stored
// atomically, and the element itself lands before the table publishes
// the length (or the row its head) that covers it (see the file comment).
//
// Chunk sizes run colChunkMin, colChunkMin, 2·colChunkMin, … up to
// colChunk/2 — the doubling a growing slice would do, minus the copy —
// and stay at colChunk from position colChunk on, so a one-row table
// holds colChunkMin elements per column, not a full chunk.
type column[T any] struct {
	dir atomic.Pointer[[][]T]
}

// chunkOf maps a position to its chunk and offset (chunks of 2^minBits,
// 2^minBits, 2^(minBits+1), … colChunk/2, then colChunk entries).
func chunkOf(n, minBits int) (ci, off int) {
	switch {
	case n >= colChunk:
		return n>>colChunkBits + colChunkBits - minBits, n & (colChunk - 1)
	case n < 1<<minBits:
		return 0, n
	}
	k := bits.Len(uint(n)) - 1 // the chunk holds positions [2^k, 2^(k+1))
	return k - minBits + 1, n - 1<<k
}

// chunks returns the published chunks in position order. Together they
// cover at least every position below a table length loaded before the
// call; the last one may extend past it.
func (c *column[T]) chunks() [][]T {
	if dir := c.dir.Load(); dir != nil {
		return *dir
	}
	return nil
}

// at returns the element at a published position.
func (c *column[T]) at(n int) T { return *c.ref(n) }

// ref returns the address of the element at a published position.
func (c *column[T]) ref(n int) *T {
	ci, off := chunkOf(n, colChunkMinBits)
	return &c.chunks()[ci][off]
}

// slotAt returns the address of the element at position n (writer-only;
// n is the table's unpublished next length), allocating its chunk when n
// is the chunk's first position.
func (c *column[T]) slotAt(n int) *T {
	ci, off := chunkOf(n, colChunkMinBits)
	dir := c.chunks()
	if ci == len(dir) {
		// n is the first position of a chunk as long as everything before
		// it: the next power of two below colChunk, colChunk from there on.
		// Readers holding the old directory never index past its length,
		// so append may fill spare capacity in place.
		grown := append(dir, make([]T, min(max(n, colChunkMin), colChunk)))
		c.dir.Store(&grown)
		dir = grown
	}
	return &dir[ci][off]
}

// appendAt stores the element at position n (writer-only, as slotAt).
func (c *column[T]) appendAt(n int, w T) { *c.slotAt(n) = w }

// colStore holds a table by position: one word column per attribute,
// whose words have the kind kinds names, and the row records, all
// published by n, the table's length.
type colStore struct {
	kinds []db.Kind
	cols  []column[uint64]
	rows  column[row]
	n     atomic.Int64
}

func (c *colStore) init(rel *db.RelationSchema) {
	c.kinds, c.cols = make([]db.Kind, len(rel.Attrs)), make([]column[uint64], len(rel.Attrs))
	for i, a := range rel.Attrs {
		c.kinds[i] = a.Kind
	}
}

// len returns the published length: every position below it is readable.
func (c *colStore) len() int { return int(c.n.Load()) }

// row returns the row at a published position, or at one a rowMap slot
// holds.
func (c *colStore) row(p int) *row { return c.rows.ref(p) }

// eachRows calls f with the records at the published positions [lo, hi),
// in order, one chunk's slice at a time.
func (c *colStore) eachRows(lo, hi int, f func(rows []row)) {
	chunks := c.rows.chunks()
	for lo < hi {
		ci, off := chunkOf(lo, colChunkMinBits)
		rows := chunks[ci][off:min(len(chunks[ci]), off+hi-lo)]
		f(rows)
		lo += len(rows)
	}
}

// value returns column col's value at a published position.
func (c *colStore) value(col, p int) db.Value {
	return db.FromWord(c.kinds[col], c.cols[col].at(p))
}

// tuple builds the row at a published position into dst[:0].
func (c *colStore) tuple(p int, dst db.Tuple) db.Tuple {
	ci, off := chunkOf(p, colChunkMinBits)
	dst = dst[:0]
	for i := range c.cols {
		dst = append(dst, db.FromWord(c.kinds[i], c.cols[i].chunks()[ci][off]))
	}
	return dst
}

// holds reports whether the row at a published position holds t.
func (c *colStore) holds(p int, t db.Tuple) bool {
	if len(t) != len(c.cols) {
		return false
	}
	for i, v := range t {
		if v != c.value(i, p) {
			return false
		}
	}
	return true
}

// matches is u.MatchesTuple for the row at a published position.
func (c *colStore) matches(p int, u *db.Update) bool {
	for i := range u.Sel {
		if !u.Sel[i].MatchesValue(c.value(i, p)) {
			return false
		}
	}
	for _, cond := range u.Conds {
		if (c.value(cond.Left, p) == c.value(cond.Right, p)) == cond.Neq {
			return false
		}
	}
	return true
}

// --- writer scratch ------------------------------------------------------

// getScanBuf returns an empty row buffer from the writer's free-list.
// The free-list is writer-owned: every caller of scan holds
// the write lock, so no synchronization is needed. Buffers handed out by
// scan must come back through putScanBuf once the update is done with
// them — an unpaired buffer is merely garbage-collected, never corrupt.
func (e *Engine) getScanBuf() []*row {
	if n := len(e.scanBufs); n > 0 {
		buf := e.scanBufs[n-1]
		e.scanBufs = e.scanBufs[:n-1]
		return buf
	}
	return make([]*row, 0, 64)
}

// putScanBuf recycles a buffer returned by scan. Row pointers are
// cleared so the free-list never retains rows: only buf[:len] can hold
// any — a buffer leaves getScanBuf empty, is only ever appended to, and
// comes back here cleared — so a buffer that once held a huge selection
// costs later updates their own result size, not its capacity. Accepts
// nil (the absent-posting-list shortcut returns nil, not a buffer).
func (e *Engine) putScanBuf(buf []*row) {
	if cap(buf) == 0 {
		return
	}
	clear(buf)
	e.scanBufs = append(e.scanBufs, buf[:0])
}
