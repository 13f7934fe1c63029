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
//     rows. Point lookups (pinned updates, Annotation/NF) probe a
//     contiguous slot array by db.Tuple.Fingerprint — no Key() string
//     is ever built on the lookup path — and disambiguate 64-bit
//     collisions with Tuple.Equal. Rows are never deleted (tombstones
//     persist), so probe sequences never break and the writer-only
//     grow path can rebuild into a fresh array and publish it with a
//     single atomic store.
//
//   - colStore: a struct-of-arrays mirror of the table's tuples — one
//     payload-word column per attribute plus a parallel sequence
//     column, all published with the rowList discipline (elements land
//     before the list's length does, and the length load is the
//     readers' happens-before edge). Planner full scans test one
//     =-constant term against the column's words before chasing any row
//     or version pointer, and visibility counting walks the sequence
//     column without touching rows at all.
//
// Memory model: the writer is serialized by the write lock. It
// stores elements with plain writes, then publishes them through an
// atomic store (the map's slot pointer, or the table list's length);
// readers load the atomic first and only then read the plainly-written
// memory, which is the same release/acquire pairing rowList has always
// used.

// rowSlots is one published generation of a rowMap: a power-of-two
// slot array probed linearly from fp & mask.
type rowSlots struct {
	mask  uint64
	slots []atomic.Pointer[row]
}

// rowMap is the fingerprint-keyed row index of a table. Readers use
// get concurrently with a writer's add; the writer is serialized by
// the write lock.
type rowMap struct {
	tab atomic.Pointer[rowSlots]
	n   int // writer-only: rows stored
}

// get returns the row stored for the tuple, or nil. Lock-free and
// allocation-free: the probe compares fingerprints first and confirms
// with tuple equality, so a fingerprint collision costs an extra
// compare, never a wrong row.
func (m *rowMap) get(fp uint64, t db.Tuple) *row {
	tab := m.tab.Load()
	if tab == nil {
		return nil
	}
	for i := fp & tab.mask; ; i = (i + 1) & tab.mask {
		r := tab.slots[i].Load()
		if r == nil {
			return nil
		}
		if r.fp == fp && r.tuple.Equal(t) {
			return r
		}
	}
}

// add stores a new row (writer-only, under the write lock). The row's
// fp must be set. Load is kept under 3/4 so reader probes always
// terminate at an empty slot.
func (m *rowMap) add(r *row) {
	tab := m.tab.Load()
	if tab == nil || 4*(m.n+1) > 3*len(tab.slots) {
		tab = m.reserve(1)
	}
	m.n++
	for i := r.fp & tab.mask; ; i = (i + 1) & tab.mask {
		if tab.slots[i].Load() == nil {
			tab.slots[i].Store(r)
			return
		}
	}
}

// reserve makes room for n ≥ 1 more rows — in the slot array doubling from 16
// under a 3/4 load reaches for that many, so a table reserved once and
// one grown row by row end up the same size — rebuilding into a fresh
// array and publishing it. Readers holding the old generation still see
// every row inserted before; rows added after only land in the new one —
// the same only-eventually-visible guarantee a concurrent map store has
// anyway.
func (m *rowMap) reserve(n int) *rowSlots {
	old := m.tab.Load()
	size := 16
	for 4*(m.n+n) > 3*size {
		size *= 2
	}
	if old != nil && len(old.slots) >= size {
		return old
	}
	tab := &rowSlots{mask: uint64(size - 1), slots: make([]atomic.Pointer[row], size)}
	if old != nil {
		for i := range old.slots {
			r := old.slots[i].Load()
			if r == nil {
				continue
			}
			for j := r.fp & tab.mask; ; j = (j + 1) & tab.mask {
				if tab.slots[j].Load() == nil {
					tab.slots[j].Store(r)
					break
				}
			}
		}
	}
	m.tab.Store(tab)
	return tab
}

// colChunkBits sizes the chunks of a word column: what the write path
// allocates (and the runtime zeroes) at a time, and what a full scan
// streams through between two slice headers. Small chunks cost
// allocations and loop restarts, large ones an unused tail per column
// per table. Replaying the wire benchmark's 12 000 TPC-C
// transactions (TestApplyAllocsPerTxn's list) the whole apply allocates
// 13.86 kB and 89.5 mallocs per transaction at 2⁶ words, 13.66 / 85.7
// at 2⁸, 13.63 / 84.7 at 2¹⁰, 13.65 / 84.5 at 2¹² and 13.85 / 84.5 at
// 2¹⁴ and 2¹⁶; a 10-update transaction of =-constant full scans over
// 200 000 rows takes 1 528 µs at 2⁶, 1 196 at 2⁸, 963 at 2¹⁰ and
// 979 at 2¹⁴ (medians of five interleaved runs that each spread by a
// third; 16-byte db.Value columns took 2 575). 2¹⁰ is the bytes minimum
// and past the knee of the scan curve; an 8 KiB chunk also stays a
// small-object allocation.
const (
	colChunkBits    = 10
	colChunk        = 1 << colChunkBits
	colChunkMinBits = 4
	colChunkMin     = 1 << colChunkMinBits
)

// wordCol is one append-only column of 64-bit words: an attribute's
// db.Value payloads (the kind is the attribute's, so it is not stored)
// or the rows' sequence numbers. Words live in chunks that are never
// copied or moved once allocated; a new chunk is published through a
// directory one entry longer, stored atomically, and the word itself
// lands before the table list publishes the length that covers it (see
// the file comment).
//
// Chunk sizes run colChunkMin, colChunkMin, 2·colChunkMin, … up to
// colChunk/2 — the doubling a growing slice would do, minus the copy —
// and stay at colChunk from position colChunk on, so a one-row table
// holds colChunkMin words per column, not a full chunk.
type wordCol struct {
	dir atomic.Pointer[[][]uint64]
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
// cover at least every position below a table-list length loaded
// before the call; the last one may extend past it.
func (c *wordCol) chunks() [][]uint64 {
	if dir := c.dir.Load(); dir != nil {
		return *dir
	}
	return nil
}

// at returns the word at a published position.
func (c *wordCol) at(n int) uint64 {
	ci, off := chunkOf(n, colChunkMinBits)
	return c.chunks()[ci][off]
}

// appendAt stores the word at position n (writer-only; n is the table
// list's unpublished next length).
func (c *wordCol) appendAt(n int, w uint64) {
	ci, off := chunkOf(n, colChunkMinBits)
	dir := c.chunks()
	if ci == len(dir) {
		// n is the first position of a chunk as long as everything before
		// it: the next power of two below colChunk, colChunk from there on.
		// Readers holding the old directory never index past its length,
		// so append may fill spare capacity in place.
		grown := append(dir, make([]uint64, min(max(n, colChunkMin), colChunk)))
		c.dir.Store(&grown)
		dir = grown
	}
	dir[ci][off] = w
}

// colStore is the columnar mirror of a table: one word column per
// attribute plus the parallel sequence column, indexed by row position.
type colStore struct {
	cols []wordCol
	seqs wordCol
}

func (c *colStore) init(arity int) {
	c.cols = make([]wordCol, arity)
}

// append mirrors one row at position n (writer-only, before the table
// list publishes n+1).
func (c *colStore) append(t db.Tuple, seq uint64, n int) {
	for i := range c.cols {
		c.cols[i].appendAt(n, t[i].Word())
	}
	c.seqs.appendAt(n, seq)
}

// --- writer scratch ------------------------------------------------------

// getScanBuf returns an empty row buffer from the writer's free-list.
// The free-list is writer-owned: every caller of scan/filterRows holds
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
