package engine

import (
	"fmt"
	"sync/atomic"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
)

// row is one stored tuple together with its version chain (see
// mvcc.go). Rows are retained after logical deletion (tombstones) so
// that provenance can be inspected and updates can be undone by
// valuation; the provenance itself lives in the versions reached
// through head.
type row struct {
	tuple db.Tuple
	// fp is the tuple's db.Tuple.Fingerprint, cached at insertion: the
	// rowMap probes compare it before tuple equality, so the hot path
	// never rebuilds Key() strings (keys survive only in snapshots and the
	// WAL, where byte-compatibility matters).
	fp uint64
	// touched is the epoch of the last transaction that touched the row:
	// what keeps a row once in its transaction's freeze list and event.
	touched uint64
	// seq is the row's creation sequence number, epoch<<32|counter: the
	// epoch is the transaction (or restore) that created the row and the
	// counter its creation index within that epoch. Sequence numbers are
	// unique per engine and increase along the table list, and a row is
	// visible at horizon s iff seq ≤ s.
	seq uint64
	// pos is the row's position in its table's list — unique per table
	// and monotone in insertion order. Posting lists hold rows as their
	// positions, kept sorted so index scans visit rows in full-scan order.
	pos uint32
	// head points at the newest version; readers resolve it against
	// their pinned horizon with row.at.
	head atomic.Pointer[version]
}

// touchedRow is one entry of Engine.touched.
type touchedRow struct {
	tbl *table
	r   *row
}

// table is everything the engine keeps for one relation.
type table struct {
	rel *db.RelationSchema
	// rows indexes rows by tuple fingerprint (see storage.go). Entries
	// are never deleted (tombstones persist), so readers probe lock-free
	// while the serialized writer stores new rows; no Key() string is
	// built on either side.
	rows rowMap
	// list holds the rows in insertion order; rows are never removed,
	// and scans iterate it for determinism: the order of Σ summands
	// must not depend on map iteration. The rowList publication order
	// (element before length) makes concurrent lock-free reads safe.
	list rowList
	// cols mirrors the tuples column-major (struct-of-arrays), one payload
	// word per value, with a parallel sequence column; planner full scans
	// and visibility counting read those instead of chasing row pointers.
	cols colStore
	// idx holds the relation's secondary indexes and the advisor's
	// counters (index.go), guarded by the write lock.
	idx tableIndexes
}

func newTable(rel *db.RelationSchema) *table {
	tbl := &table{rel: rel, idx: tableIndexes{cols: make(map[int]*colIndex), scans: make(map[int]int)}}
	tbl.cols.init(len(rel.Attrs))
	return tbl
}

// add stores a new row (writer-only): fingerprint map, columnar mirror,
// then the list append that publishes the row to ordered readers.
func (t *table) add(r *row) {
	n := t.list.len()
	r.pos = uint32(n) // a relation holds fewer than 2³² rows: posting lists store uint32 positions
	t.rows.add(r)
	t.cols.append(r.tuple, r.seq, n)
	t.list.append(r)
}

// newRow builds a row created at seq together with its first version,
// annotated ann, in one allocation; fp is the tuple's fingerprint.
func newRow(t db.Tuple, fp, seq uint64, ann *core.Expr, live bool) *row {
	rv := &struct {
		row
		first version
	}{}
	rv.tuple, rv.fp, rv.seq = t, fp, seq
	rv.first.born, rv.first.live = seq, live
	rv.first.setExpr(ann)
	rv.head.Store(&rv.first)
	return &rv.row
}

// load stores one row of the initial database (epoch 0).
func (e *Engine) load(rel string, r *row) {
	e.versions.Add(1)
	e.tables[rel].add(r)
}

// dropLoaded forgets the rows loaded into a relation so far: their source
// delivers the relation again (db.RowBatch.Restart).
func (e *Engine) dropLoaded(rel string) {
	e.versions.Add(-uint64(e.tables[rel].list.len()))
	e.tables[rel] = newTable(e.tables[rel].rel)
}

// touch lists a row the open epoch touched, once: finish freezes it and
// names it in the commit event exactly once per epoch.
func (e *Engine) touch(tbl *table, r *row) {
	if epoch := e.epoch.Load(); r.touched != epoch {
		r.touched = epoch
		e.touched = append(e.touched, touchedRow{tbl, r})
	}
}

// newVersionedRow creates a row with a zero-annotated first version
// born at the epoch's next creation sequence. The caller publishes the
// row with tbl.add (after any same-epoch mutation it performs through
// mutable — in-flight versions are invisible to readers regardless,
// because their epoch is beyond every committed horizon).
func (e *Engine) newVersionedRow(t db.Tuple, fp uint64) *row {
	seq := e.epoch.Load()<<32 | e.created
	e.created++
	e.versions.Add(1)
	return newRow(t, fp, seq, core.Zero(), false)
}

// mutable returns the version of r the current write epoch may mutate
// in place: the head itself when this epoch already owns it, otherwise
// a copy-on-write successor born at epoch<<32, atomically published as
// the new head. Readers pinned at or before the previous epoch keep
// resolving the old head — that is the whole MVCC invariant.
func (e *Engine) mutable(r *row) *version {
	v := r.head.Load()
	epoch := e.epoch.Load()
	if v.born>>32 == epoch {
		return v
	}
	// A committed form is frozen, so the struct copy is a full clone.
	nv := &version{prev: v, born: epoch << 32, nf: v.nf, live: v.live}
	e.versions.Add(1)
	r.head.Store(nv)
	return nv
}

// matchable reports whether a row is a candidate for update selections
// in the writer's view: rows in the formal support by default,
// semantically live rows under WithLiveMatching.
func (e *Engine) matchable(r *row) bool {
	return e.matchableV(r.latest())
}

// matchableV is matchable over an already-resolved version (the
// writer's head or a reader's horizon-pinned version).
func (e *Engine) matchableV(v *version) bool {
	if e.cfg.liveMatch {
		return v.live
	}
	return v.inSupport()
}

func (e *Engine) simplify(x *core.Expr) *core.Expr {
	if e.cfg.zeroAxioms {
		return core.SimplifyZero(x)
	}
	return x
}

// apply executes one checked update query of the open transaction.
func (e *Engine) apply(u db.Update) {
	tbl := e.tables[u.Rel]
	switch u.Kind {
	case db.OpInsert:
		e.insert(tbl, u.Row)
	case db.OpDelete:
		rows := e.scan(tbl, u)
		for _, r := range rows {
			e.deleteRow(tbl, r)
		}
		e.putScanBuf(rows)
	case db.OpModify:
		sources := e.scan(tbl, u)
		e.modify(tbl, u, sources)
		e.putScanBuf(sources)
	}
}

// insert applies the current query as the insertion of one tuple.
func (e *Engine) insert(tbl *table, t db.Tuple) {
	fp := t.Fingerprint()
	r := tbl.rows.get(fp, t)
	fresh := r == nil
	wasMatchable := !fresh && e.matchable(r)
	if fresh {
		r = e.newVersionedRow(t, fp)
		tbl.add(r)
	}
	v := e.mutable(r)
	if e.mode == ModeNaive {
		v.setExpr(e.simplify(core.PlusI(v.expr(), core.Var(e.cur))))
	} else {
		v.nf.Insert(e.cur)
	}
	v.live = true
	if fresh || !wasMatchable {
		e.indexAdd(tbl, r)
	}
	e.touch(tbl, r)
}

// deleteRow applies the current query as a deletion (−M for modify
// sources) to one row. Callers only pass matchable rows (scan filters),
// so a row that is unmatchable afterwards made a real transition and
// its posting entries are marked dead.
func (e *Engine) deleteRow(tbl *table, r *row) {
	v := e.mutable(r)
	if e.mode == ModeNaive {
		v.setExpr(e.simplify(core.Minus(v.expr(), core.Var(e.cur))))
	} else {
		v.nf.Delete(e.cur)
	}
	v.live = false
	if !e.matchable(r) {
		e.indexDead(tbl, r)
	}
	e.touch(tbl, r)
}

// modify runs a modification over its source rows, in scan order:
// capture every source's pre-query contribution into its target's group,
// delete the sources (−M p), then let each target absorb old +M
// ((Σ sources) ·M p); a target that is itself a source (necessarily a
// self-map) absorbs into its post-deletion annotation, yielding the
// paper's fifth normal-form shape.
func (e *Engine) modify(tbl *table, u db.Update, sources []*row) {
	if len(sources) == 0 {
		return
	}
	for _, src := range sources {
		target := u.Target(src.tuple)
		e.captureContribution(e.mod.group(target, target.Fingerprint()), src)
	}
	for _, src := range sources {
		e.deleteRow(tbl, src)
	}
	pe := core.Var(e.cur)
	for _, g := range e.mod.order[:e.mod.n] {
		e.absorbModTarget(tbl, g, pe)
	}
	e.mod.reset()
}

// modGroup accumulates, per target tuple, the provenance contributions
// of the sources collapsing into it. Groups are found by target
// fingerprint; collide chains the (vanishingly rare) distinct targets
// sharing one fingerprint so a hash collision can never merge groups.
type modGroup struct {
	target  db.Tuple
	fp      uint64
	collide *modGroup
	// naive: pre-query source annotations (copied under cow).
	raw []*core.Expr
	// normal form: flattened contributions and the inserted flag.
	contrib  []*core.Expr
	inserted bool
}

// modScratchKeep is how many groups, and how many contributions per
// group, the modify scratch keeps allocated between updates: TPC-C
// modifies one row at a time and at most an order's 5–15 lines, so 16
// covers it while bounding what an idle engine holds to about 3 kB.
const modScratchKeep = 16

// modScratch is the grouping state of one modification, owned by the
// writer (guarded by the write lock like the scan-buffer free-list):
// the fingerprint-keyed chain map, the groups in first-sight order, and
// the groups themselves with their contribution slices, reused from one
// update to the next. order[:n] are the groups of the update in flight;
// order[n:] are spare.
type modScratch struct {
	groups map[uint64]*modGroup
	order  []*modGroup
	n      int
}

// group returns the group collecting the target's sources, opening it
// on first sight.
func (s *modScratch) group(target db.Tuple, fp uint64) *modGroup {
	g := s.groups[fp]
	for g != nil && !g.target.Equal(target) {
		g = g.collide
	}
	if g != nil {
		return g
	}
	if s.n == len(s.order) {
		s.order = append(s.order, new(modGroup))
	}
	if s.groups == nil {
		s.groups = make(map[uint64]*modGroup)
	}
	g = s.order[s.n]
	s.n++
	g.target, g.fp, g.collide = target, fp, s.groups[fp]
	s.groups[fp] = g
	return g
}

// reset ends an update: no tuple or expression stays referenced, and an
// update larger than modScratchKeep leaves nothing allocated behind.
func (s *modScratch) reset() {
	if s.n > modScratchKeep {
		*s = modScratch{}
		return
	}
	clear(s.groups)
	for _, g := range s.order[:s.n] {
		raw, contrib := g.raw, g.contrib
		clear(raw)
		clear(contrib)
		*g = modGroup{}
		if cap(raw) <= modScratchKeep {
			g.raw = raw[:0]
		}
		if cap(contrib) <= modScratchKeep {
			g.contrib = contrib[:0]
		}
	}
	s.n = 0
}

// captureContribution records one source row's pre-query annotation in
// its target group (naive: the raw expression, deep-copied under cow;
// normal form: the flattened Contribution).
func (e *Engine) captureContribution(g *modGroup, src *row) {
	v := src.latest()
	if e.mode == ModeNaive {
		contrib := v.expr()
		if e.cfg.cow {
			contrib = contrib.DeepCopy()
		}
		g.raw = append(g.raw, contrib)
	} else {
		var ins bool
		g.contrib, ins = v.nf.AppendContribution(g.contrib)
		g.inserted = g.inserted || ins
	}
}

// absorbModTarget applies a completed modification group to its target
// row, creating the row if the target tuple was never stored; pe is the
// current query's variable.
func (e *Engine) absorbModTarget(tbl *table, g *modGroup, pe *core.Expr) {
	r := tbl.rows.get(g.fp, g.target)
	fresh := r == nil
	wasMatchable := !fresh && e.matchable(r)
	if fresh {
		r = e.newVersionedRow(g.target, g.fp)
		tbl.add(r)
	}
	v := e.mutable(r)
	if e.mode == ModeNaive {
		v.setExpr(e.simplify(core.PlusM(v.expr(), core.DotM(core.Sum(g.raw...), pe))))
	} else {
		v.nf.AbsorbMod(g.contrib, g.inserted, e.cur)
	}
	v.live = true
	if fresh || !wasMatchable {
		e.indexAdd(tbl, r)
	}
	e.touch(tbl, r)
}

// restoreRow stores a tuple (of fingerprint fp) with an explicit
// annotation in the open epoch, overwriting any existing row for the same
// tuple — also one an earlier add of the same epoch stored. Only an
// epoch whose rows a hook wants lists them: a restore needs no freeze.
func (e *Engine) restoreRow(rel string, t db.Tuple, fp uint64, ann *core.Expr) error {
	tbl := e.tables[rel]
	if tbl == nil {
		return fmt.Errorf("engine: %w %s", ErrUnknownRelation, rel)
	}
	if err := t.Conforms(tbl.rel); err != nil {
		return fmt.Errorf("engine: %w: %v", ErrBadTuple, err)
	}
	r := tbl.rows.get(fp, t)
	fresh := r == nil
	wasMatchable := !fresh && e.matchable(r)
	if fresh {
		r = e.newVersionedRow(t, fp)
	}
	v := e.mutable(r)
	v.setExpr(ann)
	v.live = ann.Live()
	if fresh {
		tbl.add(r)
	}
	switch {
	case fresh, !wasMatchable && e.matchable(r):
		e.indexAdd(tbl, r)
	case wasMatchable && !e.matchable(r):
		e.indexDead(tbl, r)
	}
	if e.collect {
		e.touch(tbl, r)
	}
	return nil
}
