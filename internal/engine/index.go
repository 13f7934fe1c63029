package engine

import (
	"fmt"
	"sort"
	"sync/atomic"

	"hyperprov/internal/db"
)

// Secondary indexing and the cost-based scan planner.
//
// The paper's reference implementation deliberately has no indices:
// every update scans the relation. Theorem 5.3 makes access paths
// orthogonal to provenance — the normal form is maintained per row,
// from that row's annotation and the query annotation alone — so any
// access path returning the same matching rows (in the same order)
// yields byte-identical provenance. That license is what this file
// exploits: each relation may carry any number of per-column hash
// indexes whose posting lists are kept in row-position order (the
// tbl.list insertion order, which is also the global sequence order
// under the sharded engine), so walking a posting list visits matching
// rows in exactly the order a full scan would. The differential tests
// (planner_diff_test.go) enforce this contract: annotations, streaming
// order and snapshot bytes are identical with indexing on and off.
//
// Three pieces cooperate:
//
//   - postingList/colIndex: one hash index per (relation, column).
//     Lists are strictly ordered by row.pos; inserts append (new rows
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
//   - the planner inside scan(): probes every indexed =-constrained
//     column of the selection, walks the shortest posting list, and
//     merge-intersects the two shortest when the runner-up is close
//     enough in size for the intersection to pay for itself.
//     ≠-constraints and free variables never use an index on their own
//     column; a selection with no indexed =-column falls back to the
//     full tbl.list scan.

// minIntersectLen and maxIntersectRatio gate the two-list intersection:
// the shortest list must be at least minIntersectLen entries for the
// merge to beat per-row pattern checks, and the runner-up must be at
// most maxIntersectRatio times longer, or the merge walks mostly
// non-intersecting entries.
const (
	minIntersectLen   = 64
	maxIntersectRatio = 4
)

// postingList holds the rows carrying one value in one indexed column,
// in strictly increasing row position order (the relation's insertion
// order, so index scans reproduce full-scan order). dead counts entries
// whose row has left the matchable set since the last compaction.
type postingList struct {
	rows []*row
	dead int
}

// insert adds a row, keeping position order. New rows carry the largest
// position and append; a revived row (compacted away while dead)
// re-enters at its sorted position. Returns false if already present.
func (pl *postingList) insert(r *row) bool {
	n := len(pl.rows)
	if n == 0 || pl.rows[n-1].pos < r.pos {
		pl.rows = append(pl.rows, r)
		return true
	}
	i := sort.Search(n, func(i int) bool { return pl.rows[i].pos >= r.pos })
	if i < n && pl.rows[i].pos == r.pos {
		return false
	}
	pl.rows = append(pl.rows, nil)
	copy(pl.rows[i+1:], pl.rows[i:])
	pl.rows[i] = r
	return true
}

// colIndex is a hash index over one column of a relation.
type colIndex struct {
	col     int
	attr    string
	auto    bool // built by the advisor rather than BuildIndex
	byValue map[db.Value]*postingList
	entries int    // posting entries currently stored, across all lists
	dead    int    // dead entries awaiting compaction, across all lists
	sweeps  uint64 // compaction sweeps run
	// Interval-awareness (MVCC): an index proves completeness only for
	// the horizons whose matchable set it has fully observed. since is
	// the earliest such horizon — the build itself skips rows that are
	// unmatchable at build time, which may have been matchable at older
	// epochs — and compacted records that a sweep has dropped entries
	// since, losing history above since too. scanAt uses the index for a
	// pinned horizon s iff s ≥ since and !compacted, and falls back to a
	// full scan otherwise.
	since     uint64
	compacted bool
}

// tableIndexes holds every index of one relation plus the advisor's
// pinned-scan counters for the columns that are not (yet) indexed.
type tableIndexes struct {
	cols    map[int]*colIndex
	ordered []*colIndex // build order; deterministic maintenance walks
	scans   map[int]int // advisor: =-pinned scan count per unindexed column
}

// indexManager is the per-engine index state: one tableIndexes per
// relation (created lazily) and the planner counters. The counters are
// atomics because PlannerStats may be read while a transaction holds
// the write lock; everything else is guarded by the engine lock (or the
// single goroutine of the lock-free Begin/Apply/End path).
type indexManager struct {
	threshold int // auto-build after this many pinned scans; 0 disables
	tables    map[string]*tableIndexes

	fullScans      atomic.Uint64
	indexScans     atomic.Uint64
	intersectScans atomic.Uint64
	autoBuilds     atomic.Uint64
	compactions    atomic.Uint64
	rowsScanned    atomic.Uint64
	rowsMatched    atomic.Uint64
}

// examined records one resolved scan: how many candidates its access
// path produced and how many of them the selection kept.
func (m *indexManager) examined(scanned, matched int) {
	m.rowsScanned.Add(uint64(scanned))
	m.rowsMatched.Add(uint64(matched))
}

func newIndexManager(threshold int) *indexManager {
	return &indexManager{threshold: threshold, tables: make(map[string]*tableIndexes)}
}

func (m *indexManager) ensure(rel string) *tableIndexes {
	ti := m.tables[rel]
	if ti == nil {
		ti = &tableIndexes{cols: make(map[int]*colIndex), scans: make(map[int]int)}
		m.tables[rel] = ti
	}
	return ti
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
	// Dead is the number of entries awaiting compaction.
	Dead int `json:"dead"`
	// Compactions counts amortized sweeps over this index's lists.
	Compactions uint64 `json:"compactions"`
}

// PlannerStats are the scan planner's cumulative counters: how
// selections were resolved and how much index maintenance ran.
type PlannerStats struct {
	// FullScans counts selections resolved by walking tbl.list (no
	// indexed =-constrained column, e.g. ≠-only patterns).
	FullScans uint64 `json:"fullScans"`
	// IndexScans counts selections resolved by walking one posting list.
	IndexScans uint64 `json:"indexScans"`
	// IntersectScans counts selections resolved by merge-intersecting
	// the two shortest candidate posting lists.
	IntersectScans uint64 `json:"intersectScans"`
	// AutoBuilds counts indexes built by the advisor.
	AutoBuilds uint64 `json:"autoBuilds"`
	// Compactions counts posting-list compaction sweeps.
	Compactions uint64 `json:"compactions"`
	// RowsScanned counts the candidates scans examined: column words (or
	// rows) on a full scan, posting entries on an index scan, merge
	// outputs on an intersect scan. RowsMatched counts the rows they
	// selected; the ratio is the planner's selectivity.
	RowsScanned uint64 `json:"rowsScanned"`
	RowsMatched uint64 `json:"rowsMatched"`
}

func (m *indexManager) stats() PlannerStats {
	return PlannerStats{
		FullScans:      m.fullScans.Load(),
		IndexScans:     m.indexScans.Load(),
		IntersectScans: m.intersectScans.Load(),
		AutoBuilds:     m.autoBuilds.Load(),
		Compactions:    m.compactions.Load(),
		RowsScanned:    m.rowsScanned.Load(),
		RowsMatched:    m.rowsMatched.Load(),
	}
}

// BuildIndex creates a hash index on the named attribute of the
// relation. Subsequent updates whose selection pattern constrains that
// attribute to a constant may use the index instead of a full scan. Any
// number of indexes may coexist per relation — building a second one on
// a different attribute never replaces the first — and building an
// index that already exists is a no-op (the index is already complete;
// an advisor-built index is adopted as manual so DropIndex semantics
// stay predictable).
func (e *Engine) BuildIndex(rel, attr string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.buildIndexLocked(rel, attr, false, e.sinceSeq())
}

// sinceSeq over-approximates the horizon from which an index built now
// covers the matchable set: the committed horizon, or the write epoch
// in flight when the build happens inside one (auto-builds do; a
// coordinated shard's own visibleSeq is stale, so curEpoch — the
// coordinator's epoch — carries the right scale there).
func (e *Engine) sinceSeq() uint64 {
	s := e.visibleSeq.Load()
	if c := EpochSeq(e.curEpoch); c > s {
		s = c
	}
	return s
}

func (e *Engine) buildIndexLocked(rel, attr string, auto bool, since uint64) error {
	tbl := e.tables[rel]
	if tbl == nil {
		return fmt.Errorf("engine: %w %s", ErrUnknownRelation, rel)
	}
	col := tbl.rel.AttrIndex(attr)
	if col < 0 {
		return fmt.Errorf("engine: %w: relation %s has no attribute %s", ErrUnknownAttribute, rel, attr)
	}
	ti := e.idx.ensure(rel)
	if ix := ti.cols[col]; ix != nil {
		if !auto {
			ix.auto = false
		}
		return nil
	}
	e.buildColIndexLocked(tbl, ti, col, auto, since)
	return nil
}

// buildColIndexLocked materializes the index over the current table
// state. Unmatchable rows (tombstones under live matching, syntactic
// zeros) are skipped — they are exactly what compaction would drop —
// and re-enter their lists if they ever become matchable again (see
// indexRevive).
func (e *Engine) buildColIndexLocked(tbl *table, ti *tableIndexes, col int, auto bool, since uint64) *colIndex {
	ix := &colIndex{
		col:     col,
		attr:    tbl.rel.Attrs[col].Name,
		auto:    auto,
		since:   since,
		byValue: make(map[db.Value]*postingList),
	}
	for _, r := range tbl.list.snapshot() {
		if !e.matchable(r) {
			continue
		}
		v := r.tuple[col]
		pl := ix.byValue[v]
		if pl == nil {
			pl = &postingList{}
			ix.byValue[v] = pl
		}
		pl.rows = append(pl.rows, r) // tbl.list is pos-ordered
		ix.entries++
	}
	ti.cols[col] = ix
	ti.ordered = append(ti.ordered, ix)
	delete(ti.scans, col) // the advisor's job here is done
	return ix
}

// DropIndex removes the index on the named attribute. Dropping an index
// that does not exist returns ErrUnknownIndex (the HTTP layer maps it
// to 404); the relation must exist either way.
func (e *Engine) DropIndex(rel, attr string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dropIndexLocked(rel, attr)
}

func (e *Engine) dropIndexLocked(rel, attr string) error {
	tbl := e.tables[rel]
	if tbl == nil {
		return fmt.Errorf("engine: %w %s", ErrUnknownRelation, rel)
	}
	col := tbl.rel.AttrIndex(attr)
	ti := e.idx.tables[rel]
	if col < 0 || ti == nil || ti.cols[col] == nil {
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
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.indexStatsLocked()
}

func (e *Engine) indexStatsLocked() []IndexInfo {
	var out []IndexInfo
	for _, rel := range e.schema.Names() {
		ti := e.idx.tables[rel]
		if ti == nil {
			continue
		}
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
				Dead:        ix.dead,
				Compactions: ix.sweeps,
			})
		}
	}
	return out
}

// PlannerStats reports the scan planner's cumulative counters.
func (e *Engine) PlannerStats() PlannerStats { return e.idx.stats() }

// --- maintenance hooks --------------------------------------------------

// indexAdd registers a newly created row with every index of its table.
// New rows carry the largest position, so this is an append on every
// touched posting list.
func (e *Engine) indexAdd(tbl *table, r *row) {
	ti := e.idx.tables[tbl.rel.Name]
	if ti == nil {
		return
	}
	for _, ix := range ti.ordered {
		v := r.tuple[ix.col]
		pl := ix.byValue[v]
		if pl == nil {
			pl = &postingList{}
			ix.byValue[v] = pl
		}
		if pl.insert(r) {
			ix.entries++
		}
	}
}

// indexDead records that a row left the matchable set: its posting
// entries stay in place but count toward each list's dead ratio, and a
// list that crosses 50% dead is compacted on the spot. Callers only
// invoke this on an actual matchable→unmatchable transition (scan and
// lookupPinned never hand out unmatchable rows), so the dead counters
// track reality; over-counting would only cause earlier sweeps.
func (e *Engine) indexDead(tbl *table, r *row) {
	ti := e.idx.tables[tbl.rel.Name]
	if ti == nil {
		return
	}
	for _, ix := range ti.ordered {
		pl := ix.byValue[r.tuple[ix.col]]
		if pl == nil {
			continue
		}
		pl.dead++
		ix.dead++
		if 2*pl.dead > len(pl.rows) {
			e.compact(ix, pl)
		}
	}
}

// indexRevive re-registers a row that became matchable again (an
// insertion or modification target landing on a tombstoned tuple, or a
// snapshot restore overwriting one). The row may have been compacted
// out of any subset of its lists, so each list is checked by binary
// search on the row's unique position.
func (e *Engine) indexRevive(tbl *table, r *row) {
	e.indexAdd(tbl, r)
}

// compact drops the unmatchable rows of one posting list in place,
// preserving position order. Amortization argument: a sweep runs only
// when more than half the list is dead, and each sweep is linear in the
// list, so total sweep work is linear in the number of entries ever
// marked dead.
func (e *Engine) compact(ix *colIndex, pl *postingList) {
	kept := pl.rows[:0]
	for _, r := range pl.rows {
		if e.matchable(r) {
			kept = append(kept, r)
		}
	}
	dropped := len(pl.rows) - len(kept)
	for i := len(kept); i < len(pl.rows); i++ {
		pl.rows[i] = nil
	}
	pl.rows = kept
	ix.entries -= dropped
	ix.dead -= pl.dead
	pl.dead = 0
	ix.sweeps++
	if dropped > 0 {
		// Dropped entries lose index-completeness for historical
		// horizons; pinned-epoch scans fall back to full scans from now
		// on (see scanAt).
		ix.compacted = true
	}
	e.idx.compactions.Add(1)
}

// --- the planner --------------------------------------------------------

// scan returns the rows of the table that the selection applies to, in
// deterministic order: the rows in support (annotation ≠ 0) by default,
// only the semantically live rows under WithLiveMatching — always in
// tbl.list insertion order, whatever access path resolves them.
//
// Access-path choice is cost-based: every indexed column that the
// pattern pins to an =-constant is a candidate, the shortest posting
// list wins, and the two shortest are merge-intersected when the
// runner-up is within maxIntersectRatio of the winner. Columns
// constrained only by ≠ (or free) never qualify, so ≠-only selections
// fall back to the full scan. When auto-indexing is on, the advisor
// counts each =-pinned unindexed column and builds its index the moment
// the count crosses the threshold — including for the current scan.
func (e *Engine) scan(tbl *table, u db.Update) []*row {
	ti := e.idx.tables[tbl.rel.Name]
	if ti == nil && e.idx.threshold > 0 {
		ti = e.idx.ensure(tbl.rel.Name)
	}
	if ti == nil {
		e.idx.fullScans.Add(1)
		return e.fullScan(tbl, u)
	}

	var best, second *postingList
	for i, term := range u.Sel {
		if !term.IsConst() {
			continue
		}
		ix := ti.cols[i]
		if ix == nil {
			if e.idx.threshold > 0 {
				ti.scans[i]++
				if ti.scans[i] >= e.idx.threshold {
					ix = e.buildColIndexLocked(tbl, ti, i, true, e.sinceSeq())
					e.idx.autoBuilds.Add(1)
				}
			}
			if ix == nil {
				continue
			}
		}
		pl := ix.byValue[term.Value()]
		if pl == nil {
			// Every matchable row holding this value is in the index, so
			// an absent list proves the selection matches nothing.
			e.idx.indexScans.Add(1)
			return nil
		}
		switch {
		case best == nil || len(pl.rows) < len(best.rows):
			best, second = pl, best
		case second == nil || len(pl.rows) < len(second.rows):
			second = pl
		}
	}
	if best == nil {
		e.idx.fullScans.Add(1)
		return e.fullScan(tbl, u)
	}
	if second != nil && len(best.rows) >= minIntersectLen &&
		len(second.rows) <= maxIntersectRatio*len(best.rows) {
		e.idx.intersectScans.Add(1)
		cand := intersectByPosInto(e.getScanBuf(), best.rows, second.rows)
		out := e.filterRows(cand, u)
		e.putScanBuf(cand)
		return out
	}
	e.idx.indexScans.Add(1)
	return e.filterRows(best.rows, u)
}

// fullScan is the paper's access path: walk the whole relation in
// insertion order. When the selection carries an =-constant term, the
// columnar mirror prefilters it against the attribute's word column, so
// non-matching rows cost one 8-byte compare and no row or version
// pointer is chased for them. Equal words mean equal values only within
// one kind, and nothing validates an update that reaches Apply directly,
// so a constant of another kind than its attribute skips the prefilter;
// MatchesTuple stays the decision either way.
func (e *Engine) fullScan(tbl *table, u db.Update) []*row {
	rows := tbl.list.snapshot()
	ci := firstConstTerm(u.Sel)
	if ci < 0 || u.Sel[ci].Value().Kind() != tbl.rel.Attrs[ci].Kind {
		return e.filterRows(rows, u)
	}
	want := u.Sel[ci].Value().Word()
	out := e.getScanBuf()
	left := rows
	for _, words := range tbl.cols.cols[ci].chunks() {
		words = words[:min(len(words), len(left))]
		for i, w := range words {
			if w != want {
				continue
			}
			if r := left[i]; e.matchable(r) && u.MatchesTuple(r.tuple) {
				out = append(out, r)
			}
		}
		left = left[len(words):]
	}
	e.idx.examined(len(rows), len(out))
	return out
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
	e.idx.examined(len(rows), len(out))
	return out
}

// scanAt is the planner at a pinned horizon: it returns the rows the
// selection would have applied to as of sequence s, in the same
// deterministic order scan would have produced then. Posting lists are
// interval-aware — entries are never removed except by compaction, so
// an index whose history is intact (s ≥ since, never compacted) still
// proves completeness for old horizons, and the absent-list shortcut
// still proves emptiness; otherwise the scan falls back to the full
// list with per-row version resolution. Unlike the lock-free read
// paths, scanAt takes the read lock: index structures are writer-owned
// and mutated in place, and pinned-epoch planning is rare enough that
// transaction-granular blocking is acceptable. The advisor never runs
// here (historical scans must not mutate planner state beyond the
// counters).
func (e *Engine) scanAt(tbl *table, u db.Update, s uint64) []*row {
	if s == latestMark {
		return e.scan(tbl, u)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	rows, none := e.planAt(tbl, u, s)
	if none {
		return nil
	}
	return e.filterRowsAt(rows, u, s)
}

// planAt is the pinned-horizon access-path choice shared by scanAt and
// selectEachAt: the candidate rows still to be filtered (possibly the
// whole list), or none=true when an index proves the selection empty.
// The caller holds the read lock.
func (e *Engine) planAt(tbl *table, u db.Update, s uint64) (rows []*row, none bool) {
	if ti := e.idx.tables[tbl.rel.Name]; ti != nil {
		var best, second *postingList
		usable := true
		for i, term := range u.Sel {
			if !term.IsConst() {
				continue
			}
			ix := ti.cols[i]
			if ix == nil {
				continue
			}
			if ix.compacted || s < ix.since {
				usable = false
				break
			}
			pl := ix.byValue[term.Value()]
			if pl == nil {
				// No row was ever matchable with this value while the
				// index was live, so the selection matches nothing at any
				// covered horizon.
				e.idx.indexScans.Add(1)
				return nil, true
			}
			switch {
			case best == nil || len(pl.rows) < len(best.rows):
				best, second = pl, best
			case second == nil || len(pl.rows) < len(second.rows):
				second = pl
			}
		}
		if usable && best != nil {
			if second != nil && len(best.rows) >= minIntersectLen &&
				len(second.rows) <= maxIntersectRatio*len(best.rows) {
				e.idx.intersectScans.Add(1)
				return intersectByPos(best.rows, second.rows), false
			}
			e.idx.indexScans.Add(1)
			return best.rows, false
		}
	}
	e.idx.fullScans.Add(1)
	return tbl.list.snapshot(), false
}

// Select implements Reader: the tuples the selection pattern matches
// at the committed horizon, in insertion order, through the planner.
func (e *Engine) Select(rel string, sel db.Pattern) ([]db.Tuple, error) {
	return e.selectAt(rel, sel, e.Horizon())
}

// selectAt resolves a selection at a pinned horizon and materializes
// the matched tuples.
func (e *Engine) selectAt(rel string, sel db.Pattern, s uint64) ([]db.Tuple, error) {
	rows, err := e.selectRowsAt(rel, sel, s)
	if err != nil {
		return nil, err
	}
	out := make([]db.Tuple, len(rows))
	for i, r := range rows {
		out[i] = r.tuple
	}
	return out, nil
}

// selectRowsAt validates the pattern and runs the pinned-horizon
// planner over it. The pattern is wrapped as a deletion solely because
// deletions are the pure-selection update shape the planner consumes.
func (e *Engine) selectRowsAt(rel string, sel db.Pattern, s uint64) ([]*row, error) {
	tbl := e.tables[rel]
	if tbl == nil {
		return nil, fmt.Errorf("engine: %w %s", ErrUnknownRelation, rel)
	}
	u := db.Delete(rel, sel)
	if err := u.Validate(e.schema); err != nil {
		return nil, fmt.Errorf("engine: %w: %v", ErrBadTuple, err)
	}
	return e.scanAt(tbl, u, s), nil
}

// filterRowsAt is filterRows against the versions visible at horizon s.
func (e *Engine) filterRowsAt(rows []*row, u db.Update, s uint64) []*row {
	var out []*row
	for _, r := range rows {
		v := r.at(s)
		if v == nil || !e.matchableV(v) || !u.MatchesTuple(r.tuple) {
			continue
		}
		out = append(out, r)
	}
	e.idx.examined(len(rows), len(out))
	return out
}

// SelectEach streams the tuples matching the selection at the
// committed horizon to f, in insertion order, through the planner —
// Select without materializing the result slice. With an indexed
// =-constrained column the steady-state pass allocates nothing
// (enforced by TestAllocFreeReads); f must not retain the tuples
// across engine mutations it triggers itself.
func (e *Engine) SelectEach(rel string, sel db.Pattern, f func(db.Tuple)) error {
	return e.selectEachAt(rel, sel, e.Horizon(), f)
}

func (e *Engine) selectEachAt(rel string, sel db.Pattern, s uint64, f func(db.Tuple)) error {
	tbl := e.tables[rel]
	if tbl == nil {
		return fmt.Errorf("engine: %w %s", ErrUnknownRelation, rel)
	}
	u := db.Delete(rel, sel)
	if err := u.Validate(e.schema); err != nil {
		return fmt.Errorf("engine: %w: %v", ErrBadTuple, err)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	rows, none := e.planAt(tbl, u, s)
	if none {
		return nil
	}
	matched := 0
	for _, r := range rows {
		v := r.at(s)
		if v == nil || !e.matchableV(v) || !u.MatchesTuple(r.tuple) {
			continue
		}
		matched++
		f(r.tuple)
	}
	e.idx.examined(len(rows), matched)
	return nil
}

// intersectByPos merges two position-ordered row lists into their
// intersection, still position-ordered. Positions are unique per table,
// so pointer identity and position identity coincide.
func intersectByPos(a, b []*row) []*row {
	return intersectByPosInto(nil, a, b)
}

// intersectByPosInto is intersectByPos appending into a caller-supplied
// buffer (the write path passes a recycled scan buffer).
func intersectByPosInto(out []*row, a, b []*row) []*row {
	if len(b) < len(a) {
		a, b = b, a
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].pos == b[j].pos:
			out = append(out, a[i])
			i++
			j++
		case a[i].pos < b[j].pos:
			i++
		default:
			j++
		}
	}
	return out
}
