package engine

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
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
// tbl.list insertion order), so walking a posting list visits matching
// rows in exactly the order a full scan would. The differential tests
// (planner_diff_test.go) enforce this contract: annotations, streaming
// order and snapshot bytes are identical with indexing on and off.
//
// Indexes are the writer's own: they describe the latest state, live
// under the write lock and keep no history. Reads never consult them.
//
// Four pieces cooperate:
//
//   - postingList/colIndex: one hash index per (relation, column).
//     Lists hold row positions, strictly increasing; inserts append (new rows
//     always have the largest pos), revivals of compacted-away rows
//     re-enter by binary search. Rows that leave the matchable set
//     (logical deletion under live matching, or an annotation becoming
//     syntactic zero) only bump a dead counter; once a list is more
//     than half dead it is compacted in place — the amortized sweep
//     that keeps churn-heavy posting lists proportional to their
//     matchable rows instead of growing without bound.
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
//     every indexed =-constrained column of the selection, walks the
//     shortest posting list, and merge-intersects the two shortest when
//     the runner-up is close enough in size for the intersection to pay
//     for itself. ≠-constraints and free variables never use an index
//     on their own column; a selection with no indexed =-column falls
//     back to the full tbl.list scan.
//
//   - shared batch scans (batchScan): ApplyBatch walks a column once for
//     all of the batch's full scans on it, and fullScan takes the rows
//     below that pass's end from it.

// minIntersectLen and maxIntersectRatio gate the two-list intersection:
// the shortest list must be at least minIntersectLen entries for the
// merge to beat per-row pattern checks, and the runner-up must be at
// most maxIntersectRatio times longer, or the merge walks mostly
// non-intersecting entries.
const (
	minIntersectLen   = 64
	maxIntersectRatio = 4
)

const postingInlineBits = 2 // a posting list's inline first chunk: four rows allocate nothing

// postingList holds the positions (tbl.list indexes) of the rows carrying
// one value in one indexed column, strictly increasing — insertion order,
// so index scans reproduce full-scan order — in chunks laid out as a word
// column's from an inline first one, never copied or moved. dead counts
// entries whose row has left the matchable set since the last compaction.
type postingList struct {
	n, dead int
	head    [1 << postingInlineBits]uint32
	rest    [][]uint32 // chunks 1, 2, …
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

// insert adds a row position, keeping the order. New rows carry the
// largest position and append; a revived row — matchable again, and
// possibly compacted out of the list while it was not — re-enters by
// binary search on its unique position, the entries after it moving up
// one slot, a chunk at a time. Returns false if already present.
func (pl *postingList) insert(p uint32, held *int) bool {
	if pl.n == 0 || pl.from(pl.n - 1)[0] < p {
		pl.push(p, held)
		return true
	}
	i := sort.Search(pl.n, func(i int) bool { return pl.from(i)[0] >= p })
	if i < pl.n && pl.from(i)[0] == p {
		return false
	}
	pl.push(p, held)
	for j, carry := i, p; j < pl.n; {
		c := pl.from(j)
		c = c[:min(len(c), pl.n-j)]
		last := c[len(c)-1]
		copy(c[1:], c)
		c[0], carry, j = carry, last, j+len(c)
	}
	return true
}

// colIndex is a hash index over one column of a relation.
type colIndex struct {
	col     int
	attr    string
	auto    bool // built by the advisor rather than BuildIndex
	byValue map[db.Value]*postingList
	entries int    // posting entries currently stored, across all lists
	held    int    // position slots the lists' chunks hold, inline ones included
	dead    int    // dead entries awaiting compaction, across all lists
	sweeps  uint64 // compaction sweeps run
}

// tableIndexes holds every index of one relation plus the advisor's
// pinned-scan counters for the columns that are not (yet) indexed. It is
// a field of the relation's table, guarded by the write lock.
type tableIndexes struct {
	cols    map[int]*colIndex
	ordered []*colIndex // build order; deterministic maintenance walks
	scans   map[int]int // advisor: =-pinned scan count per unindexed column
}

// planCounters are the scan planner's counters. They are atomics because
// PlannerStats may be read while a transaction holds the write lock.
type planCounters struct {
	fullScans      atomic.Uint64
	indexScans     atomic.Uint64
	intersectScans atomic.Uint64
	pointLookups   atomic.Uint64
	autoBuilds     atomic.Uint64
	compactions    atomic.Uint64
	batchPasses    atomic.Uint64
	batchScans     atomic.Uint64
	rowsScanned    atomic.Uint64
	rowsMatched    atomic.Uint64
}

// examined records one resolved scan: how many candidates its access
// path produced and how many of them the selection kept.
func (m *planCounters) examined(scanned, matched int) {
	m.rowsScanned.Add(uint64(scanned))
	m.rowsMatched.Add(uint64(matched))
}

// IndexInfo describes one secondary index for IndexStats: identity,
// origin (manual or advisor-built) and current posting-list volume.
// Entries−Dead approximates the matchable rows reachable through the
// index; Dead entries are dropped by the next compaction of their list.
type IndexInfo struct {
	Rel  string `json:"rel"`
	Attr string `json:"attr"`
	Auto bool   `json:"auto"`
	// Keys is the number of distinct values (posting lists).
	Keys int `json:"keys"`
	// Entries is the number of posting entries currently stored.
	Entries int `json:"entries"`
	// Bytes is what the lists' chunks of row positions hold.
	Bytes int `json:"bytes"`
	// Dead is the number of entries awaiting compaction.
	Dead int `json:"dead"`
	// Compactions counts amortized sweeps over this index's lists.
	Compactions uint64 `json:"compactions"`
}

// PlannerStats are the scan planner's cumulative counters: how update
// selections were resolved and how much index maintenance ran.
// FullScans + IndexScans + IntersectScans + PointLookups is the number
// of update selections planned; Select and SelectEach are reads, walk
// the rows at their horizon and count nowhere.
type PlannerStats struct {
	// FullScans counts selections resolved by walking tbl.list (no
	// indexed =-constrained column, e.g. ≠-only patterns).
	FullScans uint64 `json:"fullScans"`
	// IndexScans counts selections resolved by walking one posting list.
	IndexScans uint64 `json:"indexScans"`
	// IntersectScans counts selections resolved by merge-intersecting
	// the two shortest candidate posting lists.
	IntersectScans uint64 `json:"intersectScans"`
	// PointLookups counts update selections pinning every attribute to an
	// =-constant, answered by one probe of the fingerprint map.
	PointLookups uint64 `json:"pointLookups"`
	// AutoBuilds counts indexes built by the advisor.
	AutoBuilds uint64 `json:"autoBuilds"`
	// Compactions counts posting-list compaction sweeps.
	Compactions uint64 `json:"compactions"`
	// BatchPasses counts the column passes batches ran; BatchScans the
	// full scans (a subset of FullScans) that took their rows below the
	// pass's end from one instead of walking them (see batchScan).
	BatchPasses uint64 `json:"batchPasses"`
	BatchScans  uint64 `json:"batchScans"`
	// RowsScanned counts the candidates scans examined: column words (or
	// rows) on a full scan — a pass's words once, then a served scan's
	// hits and the words past the pass — posting entries on an index
	// scan, merge outputs on an intersect scan, one on a point lookup.
	// RowsMatched counts the rows they selected; the ratio is the
	// planner's selectivity.
	RowsScanned uint64 `json:"rowsScanned"`
	RowsMatched uint64 `json:"rowsMatched"`
}

// PlannerStats reports the scan planner's counters.
func (e *Engine) PlannerStats() PlannerStats {
	return PlannerStats{
		FullScans:      e.plan.fullScans.Load(),
		IndexScans:     e.plan.indexScans.Load(),
		IntersectScans: e.plan.intersectScans.Load(),
		PointLookups:   e.plan.pointLookups.Load(),
		AutoBuilds:     e.plan.autoBuilds.Load(),
		Compactions:    e.plan.compactions.Load(),
		BatchPasses:    e.plan.batchPasses.Load(),
		BatchScans:     e.plan.batchScans.Load(),
		RowsScanned:    e.plan.rowsScanned.Load(),
		RowsMatched:    e.plan.rowsMatched.Load(),
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

// buildColIndexLocked materializes the index over the current table
// state. Unmatchable rows (tombstones under live matching, syntactic
// zeros) are skipped — they are exactly what compaction would drop —
// and re-enter their lists if they ever become matchable again (see
// indexAdd).
func (e *Engine) buildColIndexLocked(tbl *table, col int, auto bool) *colIndex {
	ix := &colIndex{
		col:     col,
		attr:    tbl.rel.Attrs[col].Name,
		auto:    auto,
		byValue: make(map[db.Value]*postingList),
	}
	for _, r := range tbl.list.snapshot() {
		if !e.matchable(r) {
			continue
		}
		ix.list(r.tuple[col]).push(r.pos, &ix.held) // tbl.list is pos-ordered
		ix.entries++
	}
	tbl.idx.cols[col] = ix
	tbl.idx.ordered = append(tbl.idx.ordered, ix)
	delete(tbl.idx.scans, col) // the advisor's job here is done
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
	delete(ti.cols, col)
	for i, ix := range ti.ordered {
		if ix.col == col {
			ti.ordered = append(ti.ordered[:i], ti.ordered[i+1:]...)
			break
		}
	}
	// Reset the advisor counter: a dropped index must re-earn an
	// auto-build instead of reappearing on the next pinned scan.
	delete(ti.scans, col)
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
		ti := &e.tables[rel].idx
		cols := make([]int, 0, len(ti.cols))
		for col := range ti.cols {
			cols = append(cols, col)
		}
		sort.Ints(cols)
		for _, col := range cols {
			ix := ti.cols[col]
			out = append(out, IndexInfo{
				Rel:         rel,
				Attr:        ix.attr,
				Auto:        ix.auto,
				Keys:        len(ix.byValue),
				Entries:     ix.entries,
				Bytes:       4 * ix.held,
				Dead:        ix.dead,
				Compactions: ix.sweeps,
			})
		}
	}
	return out
}

// --- maintenance hooks --------------------------------------------------

// indexAdd registers a row that is new or matchable again with every
// index of its table (see postingList.insert).
func (e *Engine) indexAdd(tbl *table, r *row) {
	for _, ix := range tbl.idx.ordered {
		if ix.list(r.tuple[ix.col]).insert(r.pos, &ix.held) {
			ix.entries++
		}
	}
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

// indexDead records that a row left the matchable set: its posting
// entries stay in place but count toward each list's dead ratio, and a
// list that crosses 50% dead is compacted on the spot. Callers only
// invoke this on an actual matchable→unmatchable transition (scan and
// lookupPinned never hand out unmatchable rows), so the dead counters
// track reality; over-counting would only cause earlier sweeps.
func (e *Engine) indexDead(tbl *table, r *row) {
	for _, ix := range tbl.idx.ordered {
		pl := ix.byValue[r.tuple[ix.col]]
		if pl == nil {
			continue
		}
		pl.dead++
		ix.dead++
		if 2*pl.dead > pl.n {
			e.compact(tbl, ix, pl)
		}
	}
}

// retain keeps the positions keep accepts, in order, in place, and
// frees the chunks past the kept length, counting them out of *held.
func (pl *postingList) retain(keep func(p uint32) bool, held *int) {
	kept := 0
	for i := 0; i < pl.n; i++ {
		if p := pl.from(i)[0]; keep(p) {
			pl.from(kept)[0] = p
			kept++
		}
	}
	ci, _ := chunkOf(max(kept, 1)-1, postingInlineBits) // the last chunk kept
	for k := ci; k < len(pl.rest); k++ {
		*held, pl.rest[k] = *held-len(pl.rest[k]), nil
	}
	pl.rest, pl.n = pl.rest[:ci], kept
}

// compact drops the positions of unmatchable rows from one posting list
// (see retain). Amortization argument: a sweep runs only when more than
// half the list is dead, and each sweep is linear in the list, so total
// sweep work is linear in the number of entries ever marked dead.
func (e *Engine) compact(tbl *table, ix *colIndex, pl *postingList) {
	rows, n := tbl.list.snapshot(), pl.n
	pl.retain(func(p uint32) bool { return e.matchable(rows[p]) }, &ix.held)
	ix.entries -= n - pl.n
	ix.dead -= pl.dead
	pl.dead = 0
	ix.sweeps++
	e.plan.compactions.Add(1)
}

// --- the planner --------------------------------------------------------

// scan returns the rows of the table that the selection applies to, in
// deterministic order: the rows in support (annotation ≠ 0) by default,
// only the semantically live rows under WithLiveMatching — always in
// tbl.list insertion order, whatever access path resolves them.
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
	best, second, empty := e.pick(tbl, u.Sel)
	switch {
	case empty:
		return nil
	case best == nil:
		return e.fullScan(tbl, u)
	case second != nil:
		best = e.intersectByPos(best, second)
	}
	rows, out := tbl.list.snapshot(), e.getScanBuf()
	for i := 0; i < best.n; i++ {
		if p := best.from(i)[0]; wordsMatch(tbl, int(p), u.Sel) && e.matchable(rows[p]) && u.MatchesTuple(rows[p].tuple) {
			out = append(out, rows[p])
		}
	}
	e.plan.examined(best.n, len(out))
	return out
}

// wordsMatch tests a selection's =-constants against the word columns at
// position p: candidates that fail are never loaded from the table list.
func wordsMatch(tbl *table, p int, sel db.Pattern) bool {
	for c := range sel {
		if sel[c].IsConst() && tbl.cols.cols[c].at(p) != sel[c].Value().Word() {
			return false
		}
	}
	return true
}

// pick is the planner's one rule. It visits the columns the selection
// pins to an =-constant in pattern order; an unindexed one is counted by
// the advisor, which builds its index once the count reaches the
// threshold (the build is then used by this very scan). The shortest
// list consulted wins, and the runner-up comes with it when the two are
// to be merge-intersected: the winner at least minIntersectLen long, the
// runner-up within maxIntersectRatio of it. Every matchable row holding
// a value is in that value's list, so an absent list proves the
// selection empty. best == nil otherwise means the caller walks the
// relation. pick counts the decision and allocates nothing but the
// indexes the advisor builds.
func (e *Engine) pick(tbl *table, sel db.Pattern) (best, second *postingList, empty bool) {
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
			return nil, nil, true
		}
		switch {
		case best == nil || pl.n < best.n:
			best, second = pl, best
		case second == nil || pl.n < second.n:
			second = pl
		}
	}
	switch {
	case best == nil:
		e.plan.fullScans.Add(1)
	case second != nil && best.n >= minIntersectLen && second.n <= maxIntersectRatio*best.n:
		e.plan.intersectScans.Add(1)
		return best, second, false
	default:
		e.plan.indexScans.Add(1)
	}
	return best, nil, false
}

// lookupPinned answers a selection pinning every attribute: only the
// row stored for the pinned tuple t can match, so the scan reduces to an
// allocation-free fingerprint probe, decided by the same matchable and
// MatchesTuple as every other access path (attribute conditions, live
// matching, tombstones and revived tuples behave as in a full scan).
func (e *Engine) lookupPinned(tbl *table, u db.Update, t db.Tuple) []*row {
	e.plan.pointLookups.Add(1)
	out := e.getScanBuf()
	if r := tbl.rows.get(t.Fingerprint(), t); r != nil && e.matchable(r) && u.MatchesTuple(r.tuple) {
		out = append(out, r)
	}
	e.plan.examined(1, len(out))
	return out
}

// fullScan is the paper's access path: walk the whole relation in
// insertion order. When the selection carries an =-constant term, the
// columnar mirror prefilters it against the attribute's word column, so
// non-matching rows cost one 8-byte compare and no row or version
// pointer is chased for them. Equal words mean equal values only within
// one kind, which is the attribute's for every constant of an update
// that reached storage (checkUpdate); MatchesTuple stays the decision.
//
// Inside ApplyBatch a column pass may already hold the rows below its end
// n0 whose word is the constant (see batchScan): those are the candidates
// there, and the words are walked from n0 on. Without a pass n0 is 0.
func (e *Engine) fullScan(tbl *table, u db.Update) []*row {
	rows := tbl.list.snapshot()
	ci := firstConstTerm(u.Sel)
	if ci < 0 {
		return e.filterRows(rows, u)
	}
	want := u.Sel[ci].Value().Word()
	out := e.getScanBuf()
	hits, n0 := e.batch.served(colRef{tbl, ci}, want)
	if n0 > 0 {
		e.plan.batchScans.Add(1)
	}
	for _, h := range hits {
		if r := rows[h.pos]; e.matchable(r) && u.MatchesTuple(r.tuple) {
			out = append(out, r)
		}
	}
	left := rows[n0:]
	chunks := tbl.cols.cols[ci].chunks()
	c, off := chunkOf(n0, colChunkMinBits)
	for _, words := range chunks[c:] {
		words = words[off:min(len(words), off+len(left))]
		off = 0
		for i := indexWord(words, want); i < len(words); i += 1 + indexWord(words[i+1:], want) {
			if r := left[i]; e.matchable(r) && u.MatchesTuple(r.tuple) {
				out = append(out, r)
			}
		}
		left = left[len(words):]
	}
	e.plan.examined(len(hits)+len(rows)-n0, len(out))
	return out
}

// indexWord returns the index of the first word equal to want, or
// len(words). It is the hot loop of every full scan, kept out of line on
// purpose: at the head of its own 32-byte-aligned function the loop never
// straddles a 64-byte line, while inlined into fullScan its speed moved by
// a third with unrelated edits elsewhere in the binary (EXPERIMENTS.md,
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
	n0, pos, slots := min(ref.tbl.list.len(), math.MaxInt32), 0, b.slots
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

// filterRows applies matchability and the full selection to candidate
// rows, preserving their order. The result comes from the writer's
// scan-buffer free-list; callers release it with putScanBuf when the
// update is done with it.
func (e *Engine) filterRows(rows []*row, u db.Update) []*row {
	out := e.getScanBuf()
	for _, r := range rows {
		if e.matchable(r) && u.MatchesTuple(r.tuple) {
			out = append(out, r)
		}
	}
	e.plan.examined(len(rows), len(out))
	return out
}

// intersectByPos merges the positions two posting lists share into the
// writer's scratch list e.merged, whose chunks the next one reuses.
func (e *Engine) intersectByPos(a, b *postingList) *postingList {
	out, held := &e.merged, 0
	out.n = 0
	for i, j := 0, 0; i < a.n && j < b.n; {
		switch x, y := a.from(i)[0], b.from(j)[0]; {
		case x == y:
			out.push(x, &held)
			i++
			j++
		case x < y:
			i++
		default:
			j++
		}
	}
	return out
}
