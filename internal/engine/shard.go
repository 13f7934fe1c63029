package engine

import (
	"context"
	"fmt"
	"sync"
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
	// and monotone in insertion order. Posting lists are kept sorted by
	// pos so index scans visit rows in full-scan order, and pos doubles
	// as the membership key for binary-search reinsertion.
	pos int
	// head points at the newest version; readers resolve it against
	// their pinned horizon with row.at.
	head atomic.Pointer[version]
}

// touchedRow is one entry of shard.touched.
type touchedRow struct {
	tbl *table
	r   *row
}

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
}

// get returns the row stored for the tuple (fp must be the tuple's
// fingerprint), or nil. Lock-free and allocation-free.
func (t *table) get(fp uint64, tu db.Tuple) *row {
	return t.rows.get(fp, tu)
}

// add stores a new row (writer-only): fingerprint map, columnar mirror,
// then the list append that publishes the row to ordered readers.
func (t *table) add(r *row) {
	n := t.list.len()
	r.pos = n
	t.rows.add(r)
	t.cols.append(r.tuple, r.seq, n)
	t.list.append(r)
}

// shard is the storage partition of an Engine: the rows with their
// version chains, the columnar mirror, the secondary indexes and the scan
// planner over them, behind the write lock. It knows nothing of epoch
// allocation, horizons, hooks or views: the engine opens a write epoch on
// it, runs the epoch's steps and ends it, all under mu, and readers
// resolve its rows against a horizon the engine pinned.
type shard struct {
	mu sync.RWMutex // serializes writers (readers are lock-free)

	mode       Mode
	schema     *db.Schema
	tables     map[string]*table
	cow        bool
	zeroAxioms bool
	liveMatch  bool

	// The write epoch in flight, set by open: its number, the query
	// annotation its updates carry, the rows it has created so far and
	// whether the engine wants the touched rows back from end.
	curEpoch uint64
	cur      core.Annot
	created  uint64
	collect  bool
	// touched lists the rows of the open epoch, each once, with the
	// table holding it: end freezes them and names them for the event.
	touched []touchedRow

	// versions counts row versions ever created (MVCCStats).
	versions atomic.Uint64

	// idx is the secondary-index manager: per-column hash indexes, the
	// adaptive advisor and the planner counters (see index.go).
	idx *indexManager

	// Writer-owned scratch, guarded by the write lock like every other
	// scan-path structure: the free-list recycling scan result buffers
	// (see storage.go), the grouping state of the modification in flight
	// and the tuple a fully pinned selection probes with.
	scanBufs [][]*row
	mod      modScratch
	pinned   db.Tuple
}

// newShard builds a shard with empty tables for every relation.
func newShard(mode Mode, schema *db.Schema, cfg config) *shard {
	s := &shard{
		mode:       mode,
		schema:     schema,
		tables:     make(map[string]*table),
		cow:        cfg.cow,
		zeroAxioms: cfg.zeroAxioms,
		liveMatch:  cfg.liveMatch,
		idx:        newIndexManager(cfg.autoIndex),
	}
	for _, name := range schema.Names() {
		s.tables[name] = newTable(schema.Relation(name))
	}
	return s
}

func newTable(rel *db.RelationSchema) *table {
	tbl := &table{rel: rel}
	tbl.cols.init(len(rel.Attrs))
	return tbl
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
func (s *shard) load(rel string, r *row) {
	s.versions.Add(1)
	s.tables[rel].add(r)
}

// dropLoaded forgets the rows loaded into a relation so far: their source
// delivers the relation again (db.RowBatch.Restart).
func (s *shard) dropLoaded(rel string) {
	s.versions.Add(-uint64(s.tables[rel].list.len()))
	s.tables[rel] = newTable(s.tables[rel].rel)
}

// open starts write epoch `epoch`: versions it writes are born in the
// epoch, rows it creates are numbered from epoch<<32 on, and label names
// the query annotation of a transaction's updates. The caller holds mu
// until after end.
func (s *shard) open(epoch uint64, label string, collect bool) {
	s.curEpoch, s.created, s.collect = epoch, 0, collect
	s.cur = core.QueryAnnot(label)
}

// end closes the epoch: every row a transaction touched is frozen, so
// that the next one (with a different annotation) layers on top, and —
// when the engine collects — the epoch's rows are appended to rows for
// its commit event.
func (s *shard) end(rows []RowRef) []RowRef {
	for _, t := range s.touched {
		t.r.latest().nf.Freeze()
		if s.collect {
			rows = append(rows, RowRef{Rel: t.tbl.rel.Name, Tuple: t.r.tuple})
		}
	}
	s.touched = s.touched[:0]
	return rows
}

func (s *shard) touch(tbl *table, r *row) {
	if r.touched != s.curEpoch {
		// The freeze-tracking dedup is also what keeps each touched row in
		// the commit event exactly once per epoch.
		r.touched = s.curEpoch
		s.touched = append(s.touched, touchedRow{tbl, r})
	}
}

// newVersionedRow creates a row with a zero-annotated first version
// born at the epoch's next creation sequence. The caller publishes the
// row with tbl.add (after any same-epoch mutation it performs through
// mutable — in-flight versions are invisible to readers regardless,
// because their epoch is beyond every committed horizon).
func (s *shard) newVersionedRow(t db.Tuple, fp uint64) *row {
	seq := s.curEpoch<<32 | s.created
	s.created++
	s.versions.Add(1)
	return newRow(t, fp, seq, core.Zero(), false)
}

// mutable returns the version of r the current write epoch may mutate
// in place: the head itself when this epoch already owns it, otherwise
// a copy-on-write successor born at epoch<<32, atomically published as
// the new head. Readers pinned at or before the previous epoch keep
// resolving the old head — that is the whole MVCC invariant.
func (s *shard) mutable(r *row) *version {
	v := r.head.Load()
	if v.born>>32 == s.curEpoch {
		return v
	}
	// A committed form is frozen, so the struct copy is a full clone.
	nv := &version{prev: v, born: s.curEpoch << 32, nf: v.nf, live: v.live}
	s.versions.Add(1)
	r.head.Store(nv)
	return nv
}

// matchable reports whether a row is a candidate for update selections
// in the writer's view: rows in the formal support by default,
// semantically live rows under WithLiveMatching.
func (s *shard) matchable(r *row) bool {
	return s.matchableV(r.latest())
}

// matchableV is matchable over an already-resolved version (the
// writer's head or a reader's horizon-pinned version).
func (s *shard) matchableV(v *version) bool {
	if s.liveMatch {
		return v.live
	}
	return v.inSupport()
}

func (s *shard) simplify(x *core.Expr) *core.Expr {
	if s.zeroAxioms {
		return core.SimplifyZero(x)
	}
	return x
}

// apply executes one checked update query of the open transaction.
func (s *shard) apply(u db.Update) {
	tbl := s.tables[u.Rel]
	switch u.Kind {
	case db.OpInsert:
		s.insert(tbl, u.Row)
	case db.OpDelete:
		rows := s.scan(tbl, u)
		for _, r := range rows {
			s.deleteRow(tbl, r)
		}
		s.putScanBuf(rows)
	case db.OpModify:
		sources := s.scan(tbl, u)
		s.modify(tbl, u, sources)
		s.putScanBuf(sources)
	}
}

// insert applies the current query as the insertion of one tuple.
func (s *shard) insert(tbl *table, t db.Tuple) {
	fp := t.Fingerprint()
	r := tbl.get(fp, t)
	fresh := r == nil
	wasMatchable := !fresh && s.matchable(r)
	if fresh {
		r = s.newVersionedRow(t, fp)
		tbl.add(r)
	}
	v := s.mutable(r)
	if s.mode == ModeNaive {
		v.setExpr(s.simplify(core.PlusI(v.expr(), core.Var(s.cur))))
	} else {
		v.nf.Insert(s.cur)
	}
	v.live = true
	if fresh || !wasMatchable {
		s.indexAdd(tbl, r)
	}
	s.touch(tbl, r)
}

// deleteRow applies the current query as a deletion (−M for modify
// sources) to one row. Callers only pass matchable rows (scan filters),
// so a row that is unmatchable afterwards made a real transition and
// its posting entries are marked dead.
func (s *shard) deleteRow(tbl *table, r *row) {
	v := s.mutable(r)
	if s.mode == ModeNaive {
		v.setExpr(s.simplify(core.Minus(v.expr(), core.Var(s.cur))))
	} else {
		v.nf.Delete(s.cur)
	}
	v.live = false
	if !s.matchable(r) {
		s.indexDead(tbl, r)
	}
	s.touch(tbl, r)
}

// modify runs a modification over its source rows, in scan order:
// capture every source's pre-query contribution into its target's group,
// delete the sources (−M p), then let each target absorb old +M
// ((Σ sources) ·M p); a target that is itself a source (necessarily a
// self-map) absorbs into its post-deletion annotation, yielding the
// paper's fifth normal-form shape.
func (s *shard) modify(tbl *table, u db.Update, sources []*row) {
	if len(sources) == 0 {
		return
	}
	for _, src := range sources {
		target := u.Target(src.tuple)
		s.captureContribution(s.mod.group(target, target.Fingerprint()), src)
	}
	for _, src := range sources {
		s.deleteRow(tbl, src)
	}
	pe := core.Var(s.cur)
	for _, g := range s.mod.order[:s.mod.n] {
		s.absorbModTarget(tbl, g, pe)
	}
	s.mod.reset()
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
func (s *shard) captureContribution(g *modGroup, src *row) {
	v := src.latest()
	if s.mode == ModeNaive {
		contrib := v.expr()
		if s.cow {
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
func (s *shard) absorbModTarget(tbl *table, g *modGroup, pe *core.Expr) {
	r := tbl.get(g.fp, g.target)
	fresh := r == nil
	wasMatchable := !fresh && s.matchable(r)
	if fresh {
		r = s.newVersionedRow(g.target, g.fp)
		tbl.add(r)
	}
	v := s.mutable(r)
	if s.mode == ModeNaive {
		v.setExpr(s.simplify(core.PlusM(v.expr(), core.DotM(core.Sum(g.raw...), pe))))
	} else {
		v.nf.AbsorbMod(g.contrib, g.inserted, s.cur)
	}
	v.live = true
	if fresh || !wasMatchable {
		s.indexAdd(tbl, r)
	}
	s.touch(tbl, r)
}

// restoreRow stores a tuple (of fingerprint fp) with an explicit
// annotation in the open epoch, overwriting any existing row for the same
// tuple.
func (s *shard) restoreRow(rel string, t db.Tuple, fp uint64, ann *core.Expr) error {
	tbl := s.tables[rel]
	if tbl == nil {
		return fmt.Errorf("engine: %w %s", ErrUnknownRelation, rel)
	}
	if err := t.Conforms(tbl.rel); err != nil {
		return fmt.Errorf("engine: %w: %v", ErrBadTuple, err)
	}
	r := tbl.get(fp, t)
	fresh := r == nil
	wasMatchable := !fresh && s.matchable(r)
	if fresh {
		r = s.newVersionedRow(t, fp)
	}
	v := s.mutable(r)
	v.setExpr(ann)
	v.live = ann.Live()
	if fresh {
		tbl.add(r)
	}
	switch {
	case fresh, !wasMatchable && s.matchable(r):
		s.indexAdd(tbl, r)
	case wasMatchable && !s.matchable(r):
		s.indexDead(tbl, r)
	}
	if s.collect {
		s.touched = append(s.touched, touchedRow{tbl, r})
	}
	return nil
}

// minimize applies the zero-axiom post-processing of Proposition 5.5 to
// every annotation in the open epoch and returns the
// provenance size afterwards; ctx is checked between relations.
func (s *shard) minimize(ctx context.Context) (int64, error) {
	var n int64
	for _, name := range s.schema.Names() {
		tbl := s.tables[name]
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return n, err
			}
		}
		for _, r := range tbl.list.snapshot() {
			v := r.latest()
			if s.mode != ModeNormalForm {
				n += v.expr().Size()
				continue
			}
			old := v.nf.ToExpr()
			m := core.Minimize(old)
			n += m.Size()
			if m == old {
				// Hash-consing makes no-op minimizations pointer-equal:
				// skip the version churn for already-minimal rows.
				continue
			}
			wasMatchable := s.matchableV(v)
			nv := s.mutable(r)
			nv.setExpr(m)
			if s.collect {
				s.touched = append(s.touched, touchedRow{tbl, r})
			}
			// Minimization can collapse a zero-equivalent annotation
			// to syntactic 0, taking the row out of the support.
			if wasMatchable && !s.matchableV(nv) {
				s.indexDead(tbl, r)
			}
		}
	}
	return n, nil
}
