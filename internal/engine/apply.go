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
// through head; its values and creation sequence are the table's
// columns at pos (storage.go), where its record holds the row itself.
type row struct {
	// fp is the tuple's db.Tuple.Fingerprint, cached at insertion: the
	// rowMap probes compare it before the words, so the hot path never
	// rebuilds Key() strings (keys survive only in snapshots and the WAL,
	// where byte-compatibility matters).
	fp uint64
	// touched is the epoch of the last transaction that touched the row:
	// what keeps a row once in its transaction's freeze list and event.
	// Epochs fit in 32 bits: a sequence number is epoch<<32|counter.
	touched uint32
	// pos is the row's position in its table — unique per table and
	// monotone in insertion order. Posting lists hold rows as their
	// positions, kept sorted so index scans visit rows in full-scan order.
	pos uint32
	// head points at the newest version; readers resolve it against
	// their pinned horizon with row.at.
	head atomic.Pointer[version]
}

// rowRec is a row together with its first version: one element of the
// table's record column, written in place where the row is created, so a
// new row allocates nothing of its own.
type rowRec struct {
	row
	first version
}

// touchedRow is one entry of Engine.touched.
type touchedRow struct {
	tbl *table
	r   *row
}

// table is everything the engine keeps for one relation.
type table struct {
	rel *db.RelationSchema
	// rows indexes row positions by tuple fingerprint (see storage.go).
	// Entries are never deleted (tombstones persist), so readers probe
	// lock-free while the serialized writer stores new rows; no Key()
	// string is built on either side.
	rows rowMap
	// cols holds the table by position (struct-of-arrays): one payload
	// word per value, the rows' creation sequences and their records, in
	// insertion order. Rows are never removed, and scans walk them in
	// this order for determinism: the order of Σ summands must not
	// depend on map iteration.
	cols colStore
	// idx holds the relation's secondary indexes and the advisor's
	// counters (index.go), guarded by the write lock.
	idx tableIndexes
}

func newTable(rel *db.RelationSchema) *table {
	n := len(rel.Attrs)
	tbl := &table{rel: rel, idx: tableIndexes{cols: make([]*colIndex, n), scans: make([]int, n)}}
	tbl.cols.init(rel)
	tbl.rows.cols = &tbl.cols
	return tbl
}

// create stores a new row holding tup (writer-only), fingerprint fp,
// created at seq with a first version annotated ann, at the table's next
// position: its record and columns first, then the fingerprint map and
// the lists of the table's indexes, then the length that publishes the
// row to ordered readers. tup is only read.
func (t *table) create(fp, seq uint64, ann *core.Expr, tup db.Tuple) *row {
	n := t.cols.len()
	rec := t.cols.recs.slotAt(n)
	rec.fp, rec.pos = fp, uint32(n) // a relation holds fewer than 2³² rows: posting lists store uint32 positions
	rec.first.born = seq
	rec.first.setExpr(ann)
	rec.head.Store(&rec.first)
	for i := range t.cols.cols {
		t.cols.cols[i].appendAt(n, tup[i].Word())
	}
	t.cols.seqs.appendAt(n, seq)
	t.rows.add(n, fp)
	for i, ix := range t.idx.cols {
		if ix != nil {
			ix.list(t.cols.value(i, n)).push(uint32(n), &ix.held)
		}
	}
	t.cols.n.Store(int64(n + 1))
	return &rec.row
}

// tuple builds r's tuple into dst[:0].
func (t *table) tuple(r *row, dst db.Tuple) db.Tuple { return t.cols.tuple(int(r.pos), dst) }

// load stores one row of the initial database (epoch 0).
func (e *Engine) load(rel string, seq uint64, ann *core.Expr, t db.Tuple) {
	e.versions.Add(1)
	e.tables[rel].create(t.Fingerprint(), seq, ann, t)
}

// dropLoaded forgets the rows loaded into a relation so far: their source
// delivers the relation again (db.RowBatch.Restart).
func (e *Engine) dropLoaded(rel string) {
	e.versions.Add(-uint64(e.tables[rel].cols.len()))
	e.tables[rel] = newTable(e.tables[rel].rel)
}

// touch lists a row the open epoch touched, once: finish freezes it and
// names it in the commit event exactly once per epoch.
func (e *Engine) touch(tbl *table, r *row) {
	if epoch := uint32(e.epoch.Load()); r.touched != epoch {
		r.touched = epoch
		e.touched = append(e.touched, touchedRow{tbl, r})
	}
}

// create stores a new row holding t (of fingerprint fp) with a
// zero-annotated first version born at the epoch's next creation
// sequence. Its epoch is beyond every committed horizon, so readers that
// find the row skip its version while the writer mutates it in place.
func (e *Engine) create(tbl *table, fp uint64, t db.Tuple) *row {
	seq := e.epoch.Load()<<32 | e.created
	e.created++
	e.versions.Add(1)
	return tbl.create(fp, seq, core.Zero(), t)
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
	nv := &version{prev: v, born: epoch << 32, nf: v.nf}
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
		return v.nf.Live()
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
	if r == nil {
		r = e.create(tbl, fp, t)
	}
	v := e.mutable(r)
	if e.mode == ModeNaive {
		v.setExpr(e.simplify(core.PlusI(v.expr(), core.Var(e.cur))))
	} else {
		e.nfs.Open(&v.nf).Insert(e.cur)
	}
	e.touch(tbl, r)
}

// deleteRow applies the current query as a deletion (−M for modify
// sources) to one row.
func (e *Engine) deleteRow(tbl *table, r *row) {
	v := e.mutable(r)
	if e.mode == ModeNaive {
		v.setExpr(e.simplify(core.Minus(v.expr(), core.Var(e.cur))))
	} else {
		e.nfs.Open(&v.nf).Delete(e.cur)
	}
	e.touch(tbl, r)
}

// modify runs a modification over its source rows, in scan order:
// capture every source's pre-query contribution into its target's group,
// delete the sources (−M p), then let each target absorb old +M
// ((Σ sources) ·M p); a target that is itself a source (necessarily a
// self-map) absorbs into its post-deletion annotation, yielding the
// paper's fifth normal-form shape. Sources are built into e.source and
// targets staged in e.staged; a group copies its target into the
// scratch's vals, where a row absorbModTarget adds takes its words.
func (e *Engine) modify(tbl *table, u db.Update, sources []*row) {
	if len(sources) == 0 {
		return
	}
	for _, src := range sources {
		e.source = tbl.tuple(src, e.source)
		e.staged = u.AppendTarget(e.staged, e.source)
		fp := e.staged.Fingerprint()
		g := e.mod.find(e.staged, fp)
		if g == nil {
			g = e.mod.group(e.staged, fp, tbl.rows.get(fp, e.staged))
		}
		e.captureContribution(g, src)
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
// row is the target's stored row, nil for a target the modification creates.
type modGroup struct {
	target  db.Tuple
	fp      uint64
	row     *row
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
// update to the next, and their targets back to back in vals. order[:n]
// are the groups of the update in flight; order[n:] are spare.
type modScratch struct {
	groups map[uint64]*modGroup
	order  []*modGroup
	n      int
	vals   []db.Value
}

// find returns the group collecting the target's sources, or nil.
func (s *modScratch) find(target db.Tuple, fp uint64) *modGroup {
	g := s.groups[fp]
	for g != nil && !g.target.Equal(target) {
		g = g.collide
	}
	return g
}

// group opens the group of a target find missed, stored as row r (nil
// if none), copying target into vals.
func (s *modScratch) group(target db.Tuple, fp uint64, r *row) *modGroup {
	if s.n == len(s.order) {
		s.order = append(s.order, new(modGroup))
	}
	if s.groups == nil {
		s.groups = make(map[uint64]*modGroup)
	}
	g := s.order[s.n]
	s.n++
	lo := len(s.vals)
	s.vals = append(s.vals, target...)
	g.target, g.fp, g.row, g.collide = s.vals[lo:len(s.vals):len(s.vals)], fp, r, s.groups[fp]
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
	s.n, s.vals = 0, s.vals[:0]
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
	r := g.row
	if r == nil {
		r = e.create(tbl, g.fp, g.target)
	}
	v := e.mutable(r)
	if e.mode == ModeNaive {
		v.setExpr(e.simplify(core.PlusM(v.expr(), core.DotM(core.Sum(g.raw...), pe))))
	} else {
		e.nfs.Open(&v.nf).AbsorbMod(g.contrib, g.inserted, e.cur)
	}
	e.touch(tbl, r)
}

// restoreRow stores a tuple (of fingerprint fp) with an explicit
// annotation in the open epoch, overwriting any existing row for the same
// tuple — also one an earlier restore of the same epoch stored. Only an
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
	if r == nil {
		r = e.create(tbl, fp, t)
	}
	e.mutable(r).setExpr(ann)
	if e.collect {
		e.touch(tbl, r)
	}
	return nil
}
