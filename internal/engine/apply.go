package engine

import (
	"fmt"
	"sync/atomic"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
)

// row is one stored tuple: one element of its table's record column. Rows
// are retained after logical deletion (tombstones) so that provenance
// can be inspected and updates can be undone by valuation; its values
// are the table's word columns at pos (storage.go), its provenance the
// versions of the table's version column reached through head (mvcc.go),
// the first of them born in the epoch that created the row.
type row struct {
	// fp is the tuple's db.Tuple.Fingerprint, cached at insertion: the
	// rowMap probes compare it before the words, so the hot path never
	// rebuilds Key() strings (keys survive only in snapshots and the WAL,
	// where byte-compatibility matters).
	fp uint64
	// tix is the row's entry in Engine.touched while the open epoch
	// writes it (see owns): writer-only.
	tix uint32
	// pos is the row's position in its table — unique per table and
	// monotone in insertion order. Posting lists hold rows as their
	// positions, kept sorted so index scans visit rows in full-scan order.
	pos uint32
	// head names the newest version (a version reference, 0 for none
	// yet); readers resolve it against their pinned horizon with
	// table.at.
	head atomic.Uint32
}

// touchedRow is one entry of Engine.touched: a row the open epoch
// writes, its table and its open normal form.
type touchedRow struct {
	tbl *table
	r   *row
	nf  core.NF
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
	// word per value and the rows' records, in insertion order. Rows are
	// never removed, and scans walk them in this order for determinism:
	// the order of Σ summands must not depend on map iteration.
	cols colStore
	// vers holds every version of the table's rows, in the order they
	// were written, nvers of them (mvcc.go): append-only, in cols' chunk
	// layout. Only the writer appends; readers reach an entry through a
	// row's head, and MVCCStats reads nvers.
	vers  column[version]
	nvers atomic.Uint32
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

// create stores a new row holding tup (writer-only), fingerprint fp, at
// the table's next position: its record and columns first, then the
// fingerprint map and the lists of the table's indexes, then the length
// that publishes the row to ordered readers. tup is only read. The row
// has no version until its creator pushes one (load, or finish when the
// epoch commits), and readers skip a row with no version at their horizon.
func (t *table) create(fp uint64, tup db.Tuple) *row {
	n := t.cols.len()
	r := t.cols.rows.slotAt(n)
	r.fp, r.pos = fp, uint32(n) // a relation holds fewer than 2³² rows: posting lists store uint32 positions
	for i := range t.cols.cols {
		t.cols.cols[i].appendAt(n, tup[i].Word())
	}
	t.rows.add(n, fp)
	for i, ix := range t.idx.cols {
		if ix != nil {
			ix.list(t.cols.value(i, n)).push(uint32(n), &ix.held)
		}
	}
	t.cols.n.Store(int64(n + 1))
	return r
}

// tuple builds r's tuple into dst[:0].
func (t *table) tuple(r *row, dst db.Tuple) db.Tuple { return t.cols.tuple(int(r.pos), dst) }

// load stores one row of the initial database (epoch 0) and its first
// version.
func (e *Engine) load(rel string, ann *core.Expr, t db.Tuple) {
	tbl := e.tables[rel]
	tbl.push(tbl.create(t.Fingerprint(), t), ann, 0)
}

// dropLoaded forgets the rows loaded into a relation so far: their source
// delivers the relation again (db.RowBatch.Restart).
func (e *Engine) dropLoaded(rel string) {
	e.tables[rel] = newTable(e.tables[rel].rel)
}

// mutable returns the normal form of r the open epoch writes, valid until
// the next call: on the epoch's first write of r, a new entry of
// e.touched holding r's newest annotation, which finish freezes into r's
// next version and names in the commit event, once.
func (e *Engine) mutable(tbl *table, r *row) *core.NF {
	if !e.owns(r) {
		r.tix = uint32(len(e.touched))
		e.touched = append(e.touched, touchedRow{tbl: tbl, r: r, nf: *core.NewNF(tbl.newest(r))})
	}
	return &e.touched[r.tix].nf
}

// owns reports whether the open epoch has written r: its tix names its
// entry. finish wipes the list, so an index left from an earlier epoch
// names another row's entry or none.
func (e *Engine) owns(r *row) bool { return int(r.tix) < len(e.touched) && e.touched[r.tix].r == r }

// form returns r's normal form as the writer sees it: the open epoch's
// when the epoch has written r, else its newest version's, frozen.
func (e *Engine) form(tbl *table, r *row) core.NF {
	if e.owns(r) {
		return e.touched[r.tix].nf
	}
	return *core.NewNF(tbl.newest(r))
}

// setBase makes x r's whole annotation in the open epoch (a restore or a
// minimization): through mutable when a hook wants the epoch's rows, else
// appended at once, frozen and invisible until the epoch commits, so the
// epoch builds no touched list.
func (e *Engine) setBase(tbl *table, r *row, x *core.Expr) {
	if e.collect {
		*e.mutable(tbl, r) = *core.NewNF(x)
		return
	}
	tbl.push(r, x, uint32(e.epoch.Load()))
}

// matchable reports whether a row is a candidate for update selections
// in the writer's view: rows in the formal support by default,
// semantically live rows under WithLiveMatching.
func (e *Engine) matchable(tbl *table, r *row) bool {
	nf := e.form(tbl, r)
	return e.matchableNF(&nf)
}

// matchableNF is matchable over an already-resolved normal form (the
// writer's or, frozen, a reader's horizon-pinned version's): the form is
// in the support when it is not syntactically 0 (Section 3.1).
func (e *Engine) matchableNF(n *core.NF) bool {
	if e.cfg.liveMatch {
		return n.Live()
	}
	return !n.IsZero()
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
		r = tbl.create(fp, t)
	}
	nf := e.mutable(tbl, r)
	if e.mode == ModeNaive {
		*nf = *core.NewNF(e.simplify(core.PlusI(nf.Base(), core.Var(e.cur))))
	} else {
		e.nfs.Open(nf).Insert(e.cur)
	}
}

// deleteRow applies the current query as a deletion (−M for modify
// sources) to one row.
func (e *Engine) deleteRow(tbl *table, r *row) {
	nf := e.mutable(tbl, r)
	if e.mode == ModeNaive {
		*nf = *core.NewNF(e.simplify(core.Minus(nf.Base(), core.Var(e.cur))))
	} else {
		e.nfs.Open(nf).Delete(e.cur)
	}
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
		e.captureContribution(tbl, g, src)
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
func (e *Engine) captureContribution(tbl *table, g *modGroup, src *row) {
	nf := e.form(tbl, src)
	if e.mode == ModeNaive {
		contrib := nf.Base()
		if e.cfg.cow {
			contrib = contrib.DeepCopy()
		}
		g.raw = append(g.raw, contrib)
	} else {
		var ins bool
		g.contrib, ins = nf.AppendContribution(g.contrib)
		g.inserted = g.inserted || ins
	}
}

// absorbModTarget applies a completed modification group to its target
// row, creating the row if the target tuple was never stored; pe is the
// current query's variable.
func (e *Engine) absorbModTarget(tbl *table, g *modGroup, pe *core.Expr) {
	r := g.row
	if r == nil {
		r = tbl.create(g.fp, g.target)
	}
	nf := e.mutable(tbl, r)
	if e.mode == ModeNaive {
		*nf = *core.NewNF(e.simplify(core.PlusM(nf.Base(), core.DotM(core.Sum(g.raw...), pe))))
	} else {
		e.nfs.Open(nf).AbsorbMod(g.contrib, g.inserted, e.cur)
	}
}

// restoreTable returns the table t restores into in rel, or why not.
func (e *Engine) restoreTable(rel string, t db.Tuple) (*table, error) {
	tbl := e.tables[rel]
	if tbl == nil {
		return nil, fmt.Errorf("engine: %w %s", ErrUnknownRelation, rel)
	}
	if err := t.Conforms(tbl.rel); err != nil {
		return nil, fmt.Errorf("engine: %w: %v", ErrBadTuple, err)
	}
	return tbl, nil
}

// restoreRow stores a tuple (of fingerprint fp) with an explicit
// annotation in the open epoch, overwriting any existing row for the same
// tuple — also one an earlier restore of the same epoch stored (see
// setBase).
func (e *Engine) restoreRow(tbl *table, t db.Tuple, fp uint64, ann *core.Expr) {
	r := tbl.rows.get(fp, t)
	if r == nil {
		r = tbl.create(fp, t)
	}
	e.setBase(tbl, r, ann)
}
