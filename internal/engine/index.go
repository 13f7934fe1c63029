package engine

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"hyperprov/internal/db"
)

// Secondary indexing and the cost-based scan planner of the write path.
//
// The paper's reference implementation deliberately has no indices:
// every update scans the relation. Theorem 5.3 makes access paths
// orthogonal to provenance — the normal form is maintained per row,
// from that row's annotation and the query annotation alone — so any
// access path returning the same matching rows (in the same order)
// yields byte-identical provenance. That license is what this file
// exploits: each relation may carry any number of per-column hash
// indexes whose posting lists are kept in row-position order (the
// table's insertion order), so walking a posting list visits matching
// rows in exactly the order a full scan would. The differential tests
// (planner_diff_test.go) enforce this contract: annotations, streaming
// order and snapshot bytes are identical with indexing on and off.
//
// Indexes are the writer's own: they describe the latest state, live
// under the write lock and keep no history. Reads never consult them.
//
// Four pieces cooperate:
//
//   - postingList/colIndex: one hash index per (relation, column). The
//     list of value v holds the position of every row of the table whose
//     column holds v, strictly increasing: table.create appends each new
//     row (it has the largest position) and nothing else writes a list,
//     since a row never moves or changes its values. Whether a row is
//     matchable — in the support, or live under WithLiveMatching — is
//     decided per candidate at scan time, as on every other access path.
//
//   - the advisor: counts, per (relation, column), how many scans
//     arrived with that column pinned to an =-constant but unindexed.
//     When auto-indexing is enabled (WithAutoIndex / -autoindex) and a
//     column's count crosses the threshold, the index is built on the
//     spot (under the write lock the scan already holds) and used for
//     the very scan that triggered it.
//
//   - the planner inside scan(): answers a selection that pins every
//     attribute with one probe of the fingerprint map; otherwise probes
//     every indexed =-constrained column of the selection and walks the
//     shortest posting list. ≠-constraints and free variables never use
//     an index on their own column; a selection with no indexed =-column
//     falls back to the full scan of the table.
//
//   - shared batch scans (batchScan): ApplyBatch walks a column once for
//     all of the batch's full scans on it, and fullScan takes the rows
//     below that pass's end from it.

const postingInlineBits = 2 // a posting list's inline first chunk: four rows allocate nothing

// postingList holds the positions (row.pos) of the rows carrying
// one value in one indexed column, strictly increasing — insertion order,
// so index scans reproduce full-scan order — in chunks laid out as a word
// column's from an inline first one, never copied or moved.
type postingList struct {
	n    int
	head [1 << postingInlineBits]uint32
	rest [][]uint32 // chunks 1, 2, …
}

// from returns the slots from the i'th position to the end of its chunk.
func (pl *postingList) from(i int) []uint32 {
	if ci, off := chunkOf(i, postingInlineBits); ci > 0 {
		return pl.rest[ci-1][off:]
	}
	return pl.head[i:]
}

// push appends a position, opening the chunk that starts at n (n long up
// to colChunk, as a word column's) and counting its slots into *held.
func (pl *postingList) push(p uint32, held *int) {
	if ci, _ := chunkOf(pl.n, postingInlineBits); ci > len(pl.rest) {
		pl.rest = append(pl.rest, make([]uint32, min(pl.n, colChunk)))
		*held += min(pl.n, colChunk)
	}
	pl.from(pl.n)[0] = p
	pl.n++
}

// colIndex is a hash index over one column of a relation.
type colIndex struct {
	attr    string
	auto    bool // built by the advisor rather than BuildIndex
	byValue map[db.Value]*postingList
	held    int // position slots the lists' chunks hold, inline ones included
}

// tableIndexes holds every index of one relation plus the advisor's
// pinned-scan counters for the columns that are not (yet) indexed, both
// by column. It is a field of the relation's table, guarded by the write
// lock.
type tableIndexes struct {
	cols  []*colIndex // nil where the column has no index
	scans []int       // advisor: =-pinned scan count per unindexed column
}

// planCounters are the scan planner's counters. They are atomics because
// PlannerStats may be read while a transaction holds the write lock.
type planCounters struct {
	fullScans    atomic.Uint64
	indexScans   atomic.Uint64
	pointLookups atomic.Uint64
	autoBuilds   atomic.Uint64
	batchPasses  atomic.Uint64
	batchScans   atomic.Uint64
	rowsScanned  atomic.Uint64
	rowsMatched  atomic.Uint64
}

// examined records one resolved scan: how many candidates its access
// path produced and how many of them the selection kept.
func (m *planCounters) examined(scanned, matched int) {
	m.rowsScanned.Add(uint64(scanned))
	m.rowsMatched.Add(uint64(matched))
}

// IndexInfo describes one secondary index for IndexStats: identity,
// origin (manual or advisor-built) and current posting-list volume.
type IndexInfo struct {
	Rel  string `json:"rel"`
	Attr string `json:"attr"`
	Auto bool   `json:"auto"`
	// Keys is the number of distinct values (posting lists).
	Keys int `json:"keys"`
	// Entries is the number of posting entries: one per row of the table.
	Entries int `json:"entries"`
	// Bytes is what the lists' chunks of row positions hold.
	Bytes int `json:"bytes"`
}

// PlannerStats are the scan planner's cumulative counters: how update
// selections were resolved. FullScans + IndexScans + PointLookups is the
// number of update selections planned; Select and SelectEach are reads, walk
// the rows at their horizon and count nowhere.
type PlannerStats struct {
	// FullScans counts selections resolved by walking the table (no
	// indexed =-constrained column, e.g. ≠-only patterns).
	FullScans uint64 `json:"fullScans"`
	// IndexScans counts selections resolved by walking one posting list.
	IndexScans uint64 `json:"indexScans"`
	// PointLookups counts update selections pinning every attribute to an
	// =-constant, answered by one probe of the fingerprint map.
	PointLookups uint64 `json:"pointLookups"`
	// AutoBuilds counts indexes built by the advisor.
	AutoBuilds uint64 `json:"autoBuilds"`
	// BatchPasses counts the column passes batches ran; BatchScans the
	// full scans (a subset of FullScans) that took their rows below the
	// pass's end from one instead of walking them (see batchScan).
	BatchPasses uint64 `json:"batchPasses"`
	BatchScans  uint64 `json:"batchScans"`
	// RowsScanned counts the candidates scans examined: column words (or
	// rows) on a full scan — a pass's words once, then a served scan's
	// hits and the words past the pass — posting entries on an index
	// scan, one on a point lookup.
	// RowsMatched counts the rows they selected; the ratio is the
	// planner's selectivity.
	RowsScanned uint64 `json:"rowsScanned"`
	RowsMatched uint64 `json:"rowsMatched"`
}

// PlannerStats reports the scan planner's counters.
func (e *Engine) PlannerStats() PlannerStats {
	return PlannerStats{
		FullScans:    e.plan.fullScans.Load(),
		IndexScans:   e.plan.indexScans.Load(),
		PointLookups: e.plan.pointLookups.Load(),
		AutoBuilds:   e.plan.autoBuilds.Load(),
		BatchPasses:  e.plan.batchPasses.Load(),
		BatchScans:   e.plan.batchScans.Load(),
		RowsScanned:  e.plan.rowsScanned.Load(),
		RowsMatched:  e.plan.rowsMatched.Load(),
	}
}

// BuildIndex creates a hash index on the named attribute of the
// relation. Subsequent updates whose selection pattern constrains that
// attribute to a constant may use the index instead of a full scan. Any
// number of indexes may coexist per relation — building a second one on
// a different attribute never replaces the first — and building an index
// that already exists is a no-op (the index is already complete; an
// advisor-built index is adopted as manual so DropIndex semantics stay
// predictable). Reads never use an index (see Select).
func (e *Engine) BuildIndex(rel, attr string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	tbl := e.tables[rel]
	if tbl == nil {
		return fmt.Errorf("engine: %w %s", ErrUnknownRelation, rel)
	}
	col := tbl.rel.AttrIndex(attr)
	if col < 0 {
		return fmt.Errorf("engine: %w: relation %s has no attribute %s", ErrUnknownAttribute, rel, attr)
	}
	if ix := tbl.idx.cols[col]; ix != nil {
		ix.auto = false
		return nil
	}
	e.buildColIndexLocked(tbl, col, false)
	return nil
}

// buildColIndexLocked materializes the index over every row of the
// table; table.create appends the rows after them.
func (e *Engine) buildColIndexLocked(tbl *table, col int, auto bool) *colIndex {
	ix := &colIndex{
		attr:    tbl.rel.Attrs[col].Name,
		auto:    auto,
		byValue: make(map[db.Value]*postingList),
	}
	for p := range tbl.cols.len() {
		ix.list(tbl.cols.value(col, p)).push(uint32(p), &ix.held)
	}
	tbl.idx.cols[col] = ix
	tbl.idx.scans[col] = 0 // the advisor's job here is done
	return ix
}

// DropIndex removes the index on the named attribute, or returns
// ErrUnknownIndex (the HTTP layer maps it to 404) when there is none. The
// relation must exist either way.
func (e *Engine) DropIndex(rel, attr string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	tbl := e.tables[rel]
	if tbl == nil {
		return fmt.Errorf("engine: %w %s", ErrUnknownRelation, rel)
	}
	ti := &tbl.idx
	col := tbl.rel.AttrIndex(attr)
	if col < 0 || ti.cols[col] == nil {
		return fmt.Errorf("engine: %w %s.%s", ErrUnknownIndex, rel, attr)
	}
	// Reset the advisor counter too: a dropped index must re-earn an
	// auto-build instead of reappearing on the next pinned scan.
	ti.cols[col], ti.scans[col] = nil, 0
	return nil
}

// IndexStats reports every index of the engine — relations in schema
// order, attributes in column order — with its current posting-list
// volume.
func (e *Engine) IndexStats() []IndexInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []IndexInfo
	for _, rel := range e.schema.Names() {
		tbl := e.tables[rel]
		for _, ix := range tbl.idx.cols {
			if ix != nil {
				out = append(out, IndexInfo{
					Rel:     rel,
					Attr:    ix.attr,
					Auto:    ix.auto,
					Keys:    len(ix.byValue),
					Entries: tbl.cols.len(),
					Bytes:   4 * ix.held,
				})
			}
		}
	}
	return out
}

// list returns the posting list of value v, created empty if need be.
func (ix *colIndex) list(v db.Value) *postingList {
	pl := ix.byValue[v]
	if pl == nil {
		pl = &postingList{}
		ix.byValue[v] = pl
		ix.held += len(pl.head)
	}
	return pl
}

// --- the planner --------------------------------------------------------

// scan returns the rows of the table that the selection applies to, in
// deterministic order: the rows in support (annotation ≠ 0) by default,
// only the semantically live rows under WithLiveMatching — always in
// the table's insertion order, whatever access path resolves them.
//
// A selection whose every term is an =-constant can match one tuple
// only, so it is a point lookup (see lookupPinned) whatever indexes
// exist. Otherwise access-path choice is cost-based over the indexed
// columns that the pattern pins to an =-constant (see pick). Columns
// constrained only by ≠ (or free) never qualify, so ≠-only selections
// fall back to the full scan. When auto-indexing is on, the advisor
// counts each =-pinned unindexed column and builds its index the moment
// the count crosses the threshold — including for the current scan.
func (e *Engine) scan(tbl *table, u db.Update) []*row {
	if t, ok := u.Sel.AppendPinned(e.pinned); ok {
		e.pinned = t
		return e.lookupPinned(tbl, u, t)
	}
	best, empty := e.pick(tbl, u.Sel)
	switch {
	case empty:
		return nil
	case best == nil:
		return e.fullScan(tbl, u)
	}
	out := e.getScanBuf()
	for i := 0; i < best.n; i++ {
		if p := int(best.from(i)[0]); tbl.cols.matches(p, &u) {
			if r := tbl.cols.row(p); e.matchable(tbl, r) {
				out = append(out, r)
			}
		}
	}
	e.plan.examined(best.n, len(out))
	return out
}

// pick is the planner's one rule. It visits the columns the selection
// pins to an =-constant in pattern order; an unindexed one is counted by
// the advisor, which builds its index once the count reaches the
// threshold (the build is then used by this very scan). The shortest
// list consulted wins. Every row holding a value is in that value's
// list, so an absent list proves the selection empty. best == nil
// otherwise means the caller walks the relation. pick counts the
// decision and allocates nothing but the indexes the advisor builds.
func (e *Engine) pick(tbl *table, sel db.Pattern) (best *postingList, empty bool) {
	ti := &tbl.idx
	for i, term := range sel {
		if !term.IsConst() {
			continue
		}
		ix := ti.cols[i]
		if ix == nil && e.cfg.autoIndex > 0 {
			ti.scans[i]++
			if ti.scans[i] >= e.cfg.autoIndex {
				ix = e.buildColIndexLocked(tbl, i, true)
				e.plan.autoBuilds.Add(1)
			}
		}
		if ix == nil {
			continue
		}
		pl := ix.byValue[term.Value()]
		if pl == nil {
			e.plan.indexScans.Add(1)
			return nil, true
		}
		if best == nil || pl.n < best.n {
			best = pl
		}
	}
	if best == nil {
		e.plan.fullScans.Add(1)
	} else {
		e.plan.indexScans.Add(1)
	}
	return best, false
}

// lookupPinned answers a selection pinning every attribute: only the
// row stored for the pinned tuple t can match, so the scan reduces to an
// allocation-free fingerprint probe, decided by the same matchable and
// MatchesTuple as every other access path (attribute conditions, live
// matching, tombstones and revived tuples behave as in a full scan); the
// row holds t, so t is what the selection tests.
func (e *Engine) lookupPinned(tbl *table, u db.Update, t db.Tuple) []*row {
	e.plan.pointLookups.Add(1)
	out := e.getScanBuf()
	if r := tbl.rows.get(t.Fingerprint(), t); r != nil && e.matchable(tbl, r) && u.MatchesTuple(t) {
		out = append(out, r)
	}
	e.plan.examined(1, len(out))
	return out
}

// fullScan is the paper's access path: walk the whole relation in
// insertion order. When the selection carries an =-constant term, its
// attribute's word column prefilters it, so non-matching rows cost one
// 8-byte compare and no row or version pointer is chased for them. Equal
// words mean equal values only within one kind, which is the attribute's
// for every constant of an update that reached storage (checkUpdate);
// the whole selection is then decided on the words (colStore.matches).
//
// Inside ApplyBatch a column pass may already hold the rows below its end
// n0 whose word is the constant (see batchScan): those are the candidates
// there, and the words are walked from n0 on. Without a pass n0 is 0.
func (e *Engine) fullScan(tbl *table, u db.Update) []*row {
	n, out := tbl.cols.len(), e.getScanBuf()
	ci := firstConstTerm(u.Sel)
	if ci < 0 {
		tbl.cols.eachRows(0, n, func(rows []row) {
			for i := range rows {
				if r := &rows[i]; tbl.cols.matches(int(r.pos), &u) && e.matchable(tbl, r) {
					out = append(out, r)
				}
			}
		})
		e.plan.examined(n, len(out))
		return out
	}
	want := u.Sel[ci].Value().Word()
	hits, n0 := e.batch.served(colRef{tbl, ci}, want)
	if n0 > 0 {
		e.plan.batchScans.Add(1)
	}
	for _, h := range hits {
		if r := tbl.cols.row(int(h.pos)); tbl.cols.matches(int(h.pos), &u) && e.matchable(tbl, r) {
			out = append(out, r)
		}
	}
	// The word and record columns share one chunk layout: chunk c of one
	// holds the same positions as chunk c of the other.
	words, rows := tbl.cols.cols[ci].chunks(), tbl.cols.rows.chunks()
	c, off := chunkOf(n0, colChunkMinBits)
	for p := n0; p < n; c, off = c+1, 0 {
		ws, rs := words[c][off:min(len(words[c]), off+n-p)], rows[c][off:]
		for i := indexWord(ws, want); i < len(ws); i += 1 + indexWord(ws[i+1:], want) {
			if r := &rs[i]; tbl.cols.matches(int(r.pos), &u) && e.matchable(tbl, r) {
				out = append(out, r)
			}
		}
		p += len(ws)
	}
	e.plan.examined(len(hits)+n-n0, len(out))
	return out
}

// indexWord returns the index of the first word equal to want, or
// len(words). It is the hot loop of every full scan, kept out of line on
// purpose: at the head of its own 32-byte-aligned function the loop never
// straddles a 64-byte line, while inlined into fullScan its speed moved by
// a third with unrelated edits elsewhere in the binary (CHANGES.md,
// PR 25).
//
//go:noinline
func indexWord(words []uint64, want uint64) int {
	for i, w := range words {
		if w == want {
			return i
		}
	}
	return len(words)
}

// --- shared batch scans -------------------------------------------------

// minBatchPass is the fewest full-scan selections leading with one column
// for which ApplyBatch runs a pass. BenchmarkBatchScan's k-sweep with
// every group passed (200 000 words, constants matching no row, five
// runs) read speedup_batch_scan 0.25–0.27 at k = 1, 0.46–0.54 at 2,
// 0.92–1.18 at 4 and 1.73–1.96 at 8: a pass costs about four indexWord
// walks of the column, so four selections break even.
const minBatchPass = 4

// batchScanKeep bounds the scratch kept between batches: this many keys
// and eight times as many set slots and hits (at most 128 kB). The last
// bulk_scan batches hold ≈ 2 300 hits, whatif_read's ≈ 7 500.
const batchScanKeep = 1024

// batchScan is the writer-owned state of ApplyBatch's shared scans, after
// Crescando (Unterbrunner et al., VLDB 2009): index the batch's predicates,
// not the data, and scan the data once. For each column that minBatchPass
// or more of the batch's full-scan selections pin first, one pass walks
// the column's words below n0, the table's length then, and lists the
// rows holding each of their constants. A word below n0 never changes
// (word columns are append-only, rows never move), so a pass stays exact
// for its constants below its n0; one that a concurrent batch rebuilt or
// reset is never wrong, only unused.
type batchScan struct {
	pins, sels, n0 map[colRef]int // the advisor's =-pin count, selections led, pass end
	keys           []batchKey     // the constants of the passes
	slots          []int32        // open-addressing set over keys: index + 1, 0 empty
	hits           []batchHit     // sorted by key, then position
}

type colRef struct {
	tbl *table
	col int
}

type batchKey struct {
	ref      colRef
	word     uint64
	first, n int32 // its hits
}

type batchHit struct{ pos, key int32 }

// home is the first slot a probe for word w tries in n slots.
func home(w uint64, n int) int { return int(w*0x9e3779b97f4a7c15>>32) & (n - 1) }

// probe returns the slot holding column ref's constant w, or the empty
// slot it would take.
func (b *batchScan) probe(ref colRef, w uint64) int {
	s := home(w, len(b.slots))
	for ; b.slots[s] != 0; s = (s + 1) & (len(b.slots) - 1) {
		if k := &b.keys[b.slots[s]-1]; k.word == w && k.ref == ref {
			break
		}
	}
	return s
}

// served returns the hits of constant w in a pass over the column and
// the pass's end, or nil and 0 when no pass holds w.
func (b *batchScan) served(ref colRef, w uint64) ([]batchHit, int) {
	if n0 := b.n0[ref]; n0 > 0 {
		if s := b.probe(ref, w); b.slots[s] != 0 {
			k := &b.keys[b.slots[s]-1]
			return b.hits[k.first : k.first+k.n], n0
		}
	}
	return nil, 0
}

// reset drops the passes, keeping bounded scratch for the next batch.
func (b *batchScan) reset() {
	if b.pins == nil || max(cap(b.keys), cap(b.slots)/8, cap(b.hits)/8) > batchScanKeep {
		*b = batchScan{pins: map[colRef]int{}, sels: map[colRef]int{}, n0: map[colRef]int{}}
	}
	clear(b.pins)
	clear(b.sels)
	clear(b.n0)
	b.keys, b.hits = b.keys[:0], b.hits[:0]
}

// prepareBatch runs a batch's passes under the write lock and reports
// whether it ran any. The planner decides every selection as before and
// a pass serves only scans pick sends to fullScan, so a column indexed
// now gets none, nor does one the advisor will index during the batch
// (its scans so far plus the batch's pins reach the threshold): pins are
// counted before any constant is collected.
func (e *Engine) prepareBatch(txns []db.Transaction) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	b := &e.batch
	b.reset()
	free := func(t db.Term) bool { return !t.IsConst() }
	each := func(f func(ref colRef, sel db.Pattern)) { // pick's =-pinned selections, by first column
		for i := range txns {
			for j := range txns[i].Updates {
				u := &txns[i].Updates[j]
				if tbl := e.tables[u.Rel]; u.Kind != db.OpInsert && tbl != nil && len(u.Sel) == len(tbl.rel.Attrs) &&
					firstConstTerm(u.Sel) >= 0 && slices.ContainsFunc(u.Sel, free) {
					f(colRef{tbl, firstConstTerm(u.Sel)}, u.Sel)
				}
			}
		}
	}
	each(func(ref colRef, sel db.Pattern) {
		b.sels[ref]++
		for i := range sel {
			if sel[i].IsConst() {
				b.pins[colRef{ref.tbl, i}]++
			}
		}
	})
	n := 0 // bounds the keys from above
	for ref, sels := range b.sels {
		if ix := &ref.tbl.idx; sels < minBatchPass || ix.cols[ref.col] != nil || e.cfg.autoIndex > 0 && ix.scans[ref.col]+b.pins[ref] >= e.cfg.autoIndex {
			delete(b.sels, ref)
		}
		n += b.sels[ref]
	}
	if n == 0 {
		return false
	}
	b.slots = append(b.slots[:0], make([]int32, 1<<bits.Len(uint(8*n-1)))...) // load ≤ ⅛
	each(func(ref colRef, sel db.Pattern) {
		w := sel[ref.col].Value().Word()
		if s := b.probe(ref, w); b.sels[ref] > 0 && b.slots[s] == 0 {
			b.keys = append(b.keys, batchKey{ref: ref, word: w})
			b.slots[s] = int32(len(b.keys))
		}
	})
	for ref := range b.sels {
		e.pass(ref)
	}
	slices.SortStableFunc(b.hits, func(x, y batchHit) int { return int(x.key - y.key) })
	for i := len(b.hits) - 1; i >= 0; i-- {
		b.keys[b.hits[i].key].first = int32(i)
	}
	return true
}

// pass walks a column's words once below the table's length, capped so
// that positions fit a hit's int32, and lists each row holding one of the
// column's constants.
func (e *Engine) pass(ref colRef) {
	b := &e.batch
	n0, pos, slots := min(ref.tbl.cols.len(), math.MaxInt32), 0, b.slots
	for _, words := range ref.tbl.cols.cols[ref.col].chunks() {
		words = words[:min(len(words), n0-pos)]
		for i, w := range words {
			if slots[home(w, len(slots))] == 0 {
				continue // most words: one load, the set is eight times its keys
			}
			if k := slots[b.probe(ref, w)] - 1; k >= 0 {
				b.hits = append(b.hits, batchHit{int32(pos + i), k})
				b.keys[k].n++
			}
		}
		pos += len(words)
	}
	b.n0[ref] = n0
	e.plan.batchPasses.Add(1)
	e.plan.rowsScanned.Add(uint64(n0))
}

// endBatch drops the batch's passes.
func (e *Engine) endBatch() {
	e.mu.Lock()
	e.batch.reset()
	e.mu.Unlock()
}

// firstConstTerm returns the index of the first =-constant term of the
// pattern, or -1.
func firstConstTerm(p db.Pattern) int {
	for i := range p {
		if p[i].IsConst() {
			return i
		}
	}
	return -1
}
