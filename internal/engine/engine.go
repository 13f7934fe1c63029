package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
)

// Mode selects the provenance representation.
type Mode uint8

const (
	// ModeNaive builds raw expressions per the Section 3.1 definitions,
	// applying no axioms ("No axioms" in the paper's graphs).
	ModeNaive Mode = iota
	// ModeNormalForm maintains the Theorem 5.3 normal form
	// incrementally ("Normal form" in the paper's graphs).
	ModeNormalForm
)

// String names the mode as in the paper's figures.
func (m Mode) String() string {
	switch m {
	case ModeNaive:
		return "No axioms"
	case ModeNormalForm:
		return "Normal form"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// row is one stored tuple together with its version chain (see
// mvcc.go). Rows are retained after logical deletion (tombstones) so
// that provenance can be inspected and updates can be undone by
// valuation; the provenance itself lives in the versions reached
// through head.
type row struct {
	tuple db.Tuple
	// fp is the tuple's db.Tuple.Fingerprint, cached at insertion: the
	// rowMap probes compare it before tuple equality, and shard routing
	// reuses it, so the hot path never rebuilds Key() strings (keys
	// survive only in snapshots and the WAL, where byte-compatibility
	// matters).
	fp  uint64
	txn int // last transaction that touched the row (freeze tracking)
	// seq is the row's global creation sequence number,
	// epoch<<32|counter: the epoch is the transaction (or restore, or
	// minimization pass) that created the row and the counter its
	// creation index within that epoch. Sequence numbers are unique per
	// engine — the plain engine numbers its own epochs, the sharded
	// coordinator numbers across shards — so sorting by seq reproduces
	// exactly the insertion order a single engine would have used, and
	// a row is visible at horizon s iff seq ≤ s.
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

// touchedRow is one entry of Engine.touched.
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
	r.fp = r.tuple.Fingerprint()
	n := t.list.len()
	r.pos = n
	t.rows.add(r)
	t.cols.append(r.tuple, r.seq, n)
	t.list.append(r)
}

// config collects the settings shared by both engines; Options mutate
// it before construction.
type config struct {
	cow        bool
	zeroAxioms bool
	liveMatch  bool
	shards     int
	autoIndex  int
	initAnnot  func(rel string, t db.Tuple) core.Annot
}

func newConfig(opts []Option) *config {
	c := &config{cow: true, shards: 1}
	for _, o := range opts {
		o(c)
	}
	if c.shards < 1 {
		c.shards = 1
	}
	return c
}

// Option configures an engine (single or sharded; see Open).
type Option func(*config)

// WithCopyOnWrite controls whether the naive mode deep-copies
// sub-expressions reused across tuples (the paper's implementation
// behaviour; default true). Disabling it is the shared-representation
// ablation: expressions become DAGs, tree sizes stay exponential but
// memory and copying time do not.
func WithCopyOnWrite(cow bool) Option {
	return func(c *config) { c.cow = cow }
}

// WithEagerZeroAxioms makes the naive mode apply the zero-related axioms
// after every annotation update. The paper's "No axioms" configuration
// leaves them off (default false).
func WithEagerZeroAxioms(on bool) Option {
	return func(c *config) { c.zeroAxioms = on }
}

// WithInitialAnnotations overrides the naming of the fresh annotations
// assigned to initial database tuples; f receives the relation name and
// tuple and returns the annotation.
func WithInitialAnnotations(f func(rel string, t db.Tuple) core.Annot) Option {
	return func(c *config) { c.initAnnot = f }
}

// WithShards selects the hash-sharded engine with n independent lock
// domains when passed to Open/OpenEmpty (n ≤ 1 keeps the single
// engine). New and NewEmpty ignore it.
func WithShards(n int) Option {
	return func(c *config) { c.shards = n }
}

// WithAutoIndex enables the adaptive index advisor: once a column has
// been pinned to an =-constant by threshold scans without an index of
// its own, the engine builds the index automatically and the planner
// starts using it (each shard of a sharded engine advises its own
// partition). threshold <= 0 disables auto-indexing (the default);
// manual BuildIndex works either way. Indexes never change results —
// only access paths — so enabling this is always safe.
func WithAutoIndex(threshold int) Option {
	return func(c *config) { c.autoIndex = threshold }
}

// WithLiveMatching restricts update selections to semantically live
// tuples instead of the paper's formal support (annotation ≠ 0, which
// includes logically deleted tuples — see Figure 4, where the dead
// Sport bike still participates in T2). Live matching reproduces what a
// conventional reenactment implementation measures — per-tuple
// provenance stays linear in the number of updates that actually
// touched the tuple, comparable to an MV-semiring version chain — but
// it trades away part of the model's hypothetical-reasoning power:
// transaction-abortion valuations can diverge from true re-execution,
// because the effect of a query on a tuple that was dead at the time is
// no longer recorded (deletion propagation of input tuples remains
// exact; see the package tests). Default off.
func WithLiveMatching(on bool) Option {
	return func(c *config) { c.liveMatch = on }
}

// Engine is a provenance-tracking database: every stored tuple carries
// an UP[X] annotation. Construct with New, load tuples through the
// initial database, then apply annotated transactions with
// ApplyTransaction (or Begin/Apply/End for streaming use).
//
// Concurrency: writers are still serialized — ApplyTransaction,
// ApplyAll, RestoreRow, BuildIndex, DropIndex and MinimizeAll take the
// write lock — but readers no longer lock at all. Annotation, NF,
// EachRow, Rows, NumRows, SupportSize, ProvSize, ProvDAGSize, At and
// the package-level valuation entry points (Specialize,
// SpecializeParallel, BoolRestrict*, …) pin the committed horizon
// (Horizon) on entry and resolve every row against the MVCC version
// chains, so any number of provenance-usage queries run against a
// consistent epoch snapshot while transactions commit concurrently —
// no stop-the-world on any read path. At(seq) pins an older horizon
// for time travel. The Begin/Apply/End streaming path remains the
// single-goroutine hot path the benchmarks measure; servers go through
// ApplyTransaction.
type Engine struct {
	mu sync.RWMutex // serializes writers (readers are lock-free)

	mode      Mode
	schema    *db.Schema
	tables    map[string]*table
	seq       *core.AnnotSeq
	initAnnot func(rel string, t db.Tuple) core.Annot

	cow        bool
	zeroAxioms bool
	liveMatch  bool

	cur   core.Annot
	inTxn bool
	txnNo int
	// touched lists the rows of the open transaction, each once, with
	// the table holding it: End freezes them and names them in the event.
	touched []touchedRow

	// hook, when installed, receives one CommitEvent per committed own
	// epoch. evKind/evLabel describe the epoch in flight and evRows — a
	// buffer reused from epoch to epoch — its rows, filled by End (or row
	// by row on the restore and minimize paths); collectEv gates the
	// filling — set from hook by Begin and the other own-epoch entry
	// points, or forced on by the sharded coordinator, which harvests
	// evRows itself (a coordinated shard never emits: the tracker owns
	// event order then). All of these are guarded by mu.
	hook      CommitHook
	collectEv bool
	evKind    CommitKind
	evLabel   string
	evRows    []RowRef

	// epoch numbers this engine's own write epochs (transactions,
	// restores, minimization passes) when no sharded coordinator is
	// driving it; curEpoch is the epoch of the write in flight and
	// seqLocal its creation counter. ownSeq records whether the current
	// write allocated its own epoch (and must publish the horizon when
	// it commits) or runs under a coordinator.
	epoch    atomic.Uint64
	curEpoch uint64
	seqLocal uint64
	ownSeq   bool

	// visibleSeq is the committed read horizon: every version born at
	// or before it is visible to readers. Initialized to
	// EpochSeq(0) — the initial rows — and advanced (with release
	// semantics, the readers' happens-before edge) when an own epoch
	// commits. A coordinated shard never advances it; the sharded
	// engine's epochTracker owns visibility then.
	visibleSeq atomic.Uint64

	// hzNote wakes WaitHorizon callers after each visibleSeq advance.
	hzNote horizonNote

	// versions counts row versions ever created (MVCCStats).
	versions atomic.Uint64

	// nextSeq, when set (by the sharded coordinator, under the write
	// lock), numbers newly created rows with global sequence numbers.
	nextSeq func() uint64

	// idx is the secondary-index manager: per-column hash indexes, the
	// adaptive advisor and the planner counters (see index.go).
	idx *indexManager

	// scanBufs is the writer-owned free-list recycling scan result
	// buffers (see storage.go) and mod the grouping scratch of the
	// modification in flight; both are guarded by the write lock like
	// every other scan-path structure.
	scanBufs [][]*row
	mod      modScratch
}

// New builds an engine in the given mode from an initial database. Each
// initial tuple is annotated with a fresh tuple annotation (t0, t1, …
// unless WithInitialAnnotations overrides the naming); the input
// database is not modified or referenced afterwards.
func New(mode Mode, initial *db.Database, opts ...Option) *Engine {
	cfg := newConfig(opts)
	e := newShell(mode, initial.Schema(), cfg)
	var seq uint64
	for _, name := range e.schema.Names() {
		tbl := e.tables[name]
		for _, t := range initial.Instance(name).Tuples() {
			a := e.freshAnnot(name, t)
			r := newRow(t, seq, core.Var(a), true)
			seq++
			e.versions.Add(1)
			tbl.add(r)
		}
	}
	return e
}

// newShell builds an engine with empty tables for every relation.
func newShell(mode Mode, schema *db.Schema, cfg *config) *Engine {
	e := &Engine{
		mode:       mode,
		schema:     schema,
		tables:     make(map[string]*table),
		seq:        core.NewAnnotSeq("t", core.KindTuple),
		initAnnot:  cfg.initAnnot,
		cow:        cfg.cow,
		zeroAxioms: cfg.zeroAxioms,
		liveMatch:  cfg.liveMatch,
		idx:        newIndexManager(cfg.autoIndex),
	}
	e.visibleSeq.Store(EpochSeq(0))
	for _, name := range schema.Names() {
		tbl := &table{rel: schema.Relation(name)}
		tbl.cols.init(len(tbl.rel.Attrs))
		e.tables[name] = tbl
	}
	return e
}

// newRow builds a row created at seq together with its first version,
// annotated ann, in one allocation.
func newRow(t db.Tuple, seq uint64, ann *core.Expr, live bool) *row {
	rv := &struct {
		row
		first version
	}{}
	rv.tuple, rv.txn, rv.seq = t, -1, seq
	rv.first.born, rv.first.live = seq, live
	rv.first.setExpr(ann)
	rv.head.Store(&rv.first)
	return &rv.row
}

func (e *Engine) freshAnnot(rel string, t db.Tuple) core.Annot {
	if e.initAnnot != nil {
		return e.initAnnot(rel, t)
	}
	return e.seq.Next()
}

// NewEmpty builds an engine over a schema with no initial tuples, for
// snapshot restoration and streaming ingestion.
func NewEmpty(mode Mode, schema *db.Schema, opts ...Option) *Engine {
	return New(mode, db.NewDatabase(schema), opts...)
}

// RestoreRow stores a tuple with an explicit annotation, overwriting any
// existing row for the same tuple. It is the inverse of EachRow and is
// used by snapshot loading (package provstore); it must not be called
// inside a transaction. Each restore is its own write epoch.
func (e *Engine) RestoreRow(rel string, t db.Tuple, ann *core.Expr) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.nextSeq == nil {
		e.beginOwnEpoch()
		e.beginEvent(CommitRestore, "")
		err := e.restoreRowLocked(rel, t, ann)
		e.commitOwnEpoch()
		return err
	}
	return e.restoreRowLocked(rel, t, ann)
}

// SetCommitHook installs (or, with nil, removes) the commit-event
// subscriber. At most one hook is installed at a time; see CommitHook
// for the contract it must honour. SetCommitHook waits for any write
// in flight under the lock, so every epoch applied after it returns is
// announced; it must not race the lock-free Begin/Apply/End streaming
// path (which is single-goroutine by contract anyway).
func (e *Engine) SetCommitHook(h CommitHook) {
	e.mu.Lock()
	e.hook = h
	e.mu.Unlock()
}

// beginEvent opens event accumulation for an own epoch.
func (e *Engine) beginEvent(kind CommitKind, label string) {
	e.evKind, e.evLabel = kind, label
	e.evRows = e.evRows[:0]
	e.collectEv = e.hook != nil
}

// evRowsKeep is the longest event row buffer kept for reuse (40 kB): one
// bulk transaction must not pin its row list for the engine's lifetime.
const evRowsKeep = 1024

// recycleRows wipes an event's row buffer after the hook returned and
// hands it back emptied, or nil when it grew past evRowsKeep.
func recycleRows(rows []RowRef) []RowRef {
	clear(rows)
	if cap(rows) > evRowsKeep {
		return nil
	}
	return rows[:0]
}

// beginOwnEpoch opens a self-allocated write epoch (no sharded
// coordinator); commitOwnEpoch publishes it to readers.
func (e *Engine) beginOwnEpoch() {
	e.curEpoch = e.epoch.Add(1)
	e.seqLocal = 0
	e.ownSeq = true
}

func (e *Engine) commitOwnEpoch() {
	e.ownSeq = false
	e.visibleSeq.Store(EpochSeq(e.curEpoch))
	e.hzNote.wake()
	// The event fires after the horizon advance, so a subscriber reading
	// At(ev.Seq) observes the committed epoch. Emission runs under the
	// write lock, which is what serializes events into epoch order.
	if e.hook != nil && e.collectEv {
		e.hook(CommitEvent{
			Epoch: e.curEpoch,
			Seq:   EpochSeq(e.curEpoch),
			Kind:  e.evKind,
			Label: e.evLabel,
			Rows:  e.evRows,
		})
		// Rows was lent for the call: wipe it, so the buffer pins no tuple
		// and a hook that kept the slice reads blanks instead of the next
		// epoch's rows.
		e.evRows = recycleRows(e.evRows)
	}
	e.collectEv = false
}

func (e *Engine) restoreRowLocked(rel string, t db.Tuple, ann *core.Expr) error {
	if e.inTxn {
		return fmt.Errorf("engine: RestoreRow inside a transaction")
	}
	tbl := e.tables[rel]
	if tbl == nil {
		return fmt.Errorf("engine: %w %s", ErrUnknownRelation, rel)
	}
	if err := t.Conforms(tbl.rel); err != nil {
		return fmt.Errorf("engine: %w: %v", ErrBadTuple, err)
	}
	r := tbl.get(t.Fingerprint(), t)
	fresh := r == nil
	wasMatchable := !fresh && e.matchable(r)
	if fresh {
		r = e.newVersionedRow(t)
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
	if e.collectEv {
		e.evRows = append(e.evRows, RowRef{Rel: rel, Tuple: t})
	}
	return nil
}

// Mode reports the provenance representation in use.
func (e *Engine) Mode() Mode { return e.mode }

// Schema returns the database schema.
func (e *Engine) Schema() *db.Schema { return e.schema }

// Begin starts a transaction whose queries carry the annotation label.
// Unless a sharded coordinator installed its own numbering, the
// transaction allocates the engine's next epoch; its effects become
// visible to readers at End.
func (e *Engine) Begin(label string) {
	if e.inTxn {
		panic("engine: Begin inside an open transaction")
	}
	e.cur = core.QueryAnnot(label)
	e.inTxn = true
	e.touched = e.touched[:0]
	e.beginEvent(CommitTxn, label)
	if e.nextSeq == nil {
		e.beginOwnEpoch()
	}
}

// End closes the current transaction. In normal-form mode every touched
// row is frozen so that the next transaction (with a different
// annotation) layers on top. A self-numbered transaction publishes its
// epoch to the read horizon here — commit, from the readers' view.
func (e *Engine) End() {
	if !e.inTxn {
		panic("engine: End without Begin")
	}
	for _, t := range e.touched {
		if e.mode == ModeNormalForm {
			t.r.latest().nf.Freeze()
		}
		if e.collectEv {
			e.evRows = append(e.evRows, RowRef{Rel: t.tbl.rel.Name, Tuple: t.r.tuple})
		}
	}
	e.inTxn = false
	e.txnNo++
	e.touched = e.touched[:0]
	if e.ownSeq {
		e.commitOwnEpoch()
	}
}

func (e *Engine) touch(tbl *table, r *row) {
	if r.txn != e.txnNo {
		// The freeze-tracking dedup is also what keeps each touched row in
		// the commit event exactly once per epoch.
		r.txn = e.txnNo
		e.touched = append(e.touched, touchedRow{tbl, r})
	}
}

// newVersionedRow creates a row with a zero-annotated first version
// born at the row's creation sequence: the sharded coordinator's
// numbering when one is installed, the engine's own epoch and creation
// counter otherwise — every row gets a unique, monotone sequence number
// either way, so version order is total in the single-engine path too.
// The caller publishes the row with tbl.add (after any same-epoch
// mutation it performs through mutable — in-flight versions are
// invisible to readers regardless, because their epoch is beyond every
// committed horizon).
func (e *Engine) newVersionedRow(t db.Tuple) *row {
	var seq uint64
	if e.nextSeq != nil {
		seq = e.nextSeq()
	} else {
		seq = e.curEpoch<<32 | e.seqLocal
		e.seqLocal++
	}
	e.versions.Add(1)
	return newRow(t, seq, core.Zero(), false)
}

// mutable returns the version of r the current write epoch may mutate
// in place: the head itself when this epoch already owns it, otherwise
// a copy-on-write successor born at epoch<<32, atomically published as
// the new head. Readers pinned at or before the previous epoch keep
// resolving the old head — that is the whole MVCC invariant.
func (e *Engine) mutable(r *row) *version {
	v := r.head.Load()
	if v.born>>32 == e.curEpoch {
		return v
	}
	// A committed form is frozen, so the struct copy is a full clone.
	nv := &version{prev: v, born: e.curEpoch << 32, nf: v.nf, live: v.live}
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
	if e.liveMatch {
		return v.live
	}
	return v.inSupport()
}

// Apply executes one update query of the current transaction.
func (e *Engine) Apply(u db.Update) error {
	if !e.inTxn {
		return fmt.Errorf("engine: Apply outside a transaction")
	}
	tbl := e.tables[u.Rel]
	if tbl == nil {
		return fmt.Errorf("engine: %w %s", ErrUnknownRelation, u.Rel)
	}
	switch u.Kind {
	case db.OpInsert:
		e.applyInsert(tbl, u)
		return nil
	case db.OpDelete:
		e.applyDelete(tbl, u)
		return nil
	case db.OpModify:
		e.applyModify(tbl, u)
		return nil
	default:
		return fmt.Errorf("engine: unknown update kind %v", u.Kind)
	}
}

func (e *Engine) applyInsert(tbl *table, u db.Update) {
	r := tbl.get(u.Row.Fingerprint(), u.Row)
	fresh := r == nil
	wasMatchable := !fresh && e.matchable(r)
	if fresh {
		r = e.newVersionedRow(u.Row)
		tbl.add(r)
	}
	v := e.mutable(r)
	if e.mode == ModeNaive {
		v.setExpr(e.simplify(core.PlusI(v.expr(), core.Var(e.cur))))
	} else {
		v.nf.Insert(e.cur)
	}
	v.live = true
	if fresh {
		e.indexAdd(tbl, r)
	} else if !wasMatchable {
		// A tombstoned tuple came back to life: its posting entries may
		// have been compacted away, so re-register it.
		e.indexRevive(tbl, r)
	}
	e.touch(tbl, r)
}

func (e *Engine) applyDelete(tbl *table, u db.Update) {
	rows := e.scan(tbl, u)
	for _, r := range rows {
		e.deleteRow(tbl, r)
	}
	e.putScanBuf(rows)
}

// deleteRow applies the current query as a deletion (−M for modify
// sources) to one row. Callers only pass matchable rows (scan and
// lookupPinned filter), so a row that is unmatchable afterwards made a
// real transition and its posting entries are marked dead.
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

// lookupPinned returns the one candidate row of a selection whose
// constraints pin every attribute (see db.Pattern.PinnedTuple): only
// the row stored for the pinned tuple can match, so the full scan
// reduces to an allocation-free fingerprint probe.
func (e *Engine) lookupPinned(tbl *table, u db.Update, t db.Tuple) *row {
	r := tbl.get(t.Fingerprint(), t)
	if r == nil || !e.matchable(r) || !u.MatchesTuple(r.tuple) {
		return nil
	}
	return r
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

func (e *Engine) applyModify(tbl *table, u db.Update) {
	sources := e.scan(tbl, u)
	e.modifyRows(u, sources, nil)
	e.putScanBuf(sources)
}

// captureContribution records one source row's pre-query annotation in
// its target group (naive: the raw expression, deep-copied under cow;
// normal form: the flattened Contribution).
func (e *Engine) captureContribution(g *modGroup, src *row) {
	v := src.latest()
	if e.mode == ModeNaive {
		contrib := v.expr()
		if e.cow {
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
// row, creating the row if the target tuple was never stored.
func (e *Engine) absorbModTarget(tbl *table, g *modGroup, pe *core.Expr) {
	r := tbl.get(g.fp, g.target)
	fresh := r == nil
	wasMatchable := !fresh && e.matchable(r)
	if fresh {
		r = e.newVersionedRow(g.target)
		tbl.add(r)
	}
	v := e.mutable(r)
	if e.mode == ModeNaive {
		v.setExpr(e.simplify(core.PlusM(v.expr(), core.DotM(core.Sum(g.raw...), pe))))
	} else {
		v.nf.AbsorbMod(g.contrib, g.inserted, e.cur)
	}
	v.live = true
	if fresh {
		e.indexAdd(tbl, r)
	} else if !wasMatchable {
		e.indexRevive(tbl, r)
	}
	e.touch(tbl, r)
}

// modifyRows runs a modification over the given source rows, which
// arrive in global scan order: capture every source's pre-query
// contribution into its target's group, delete the sources (−M p), then
// let each target absorb old +M ((Σ sources) ·M p); a target that is
// itself a source (necessarily a self-map) absorbs into its
// post-deletion annotation, yielding the paper's fifth normal-form
// shape. With shards set (by the sharded coordinator, which holds their
// write locks) sources and targets may live on any of them and each row
// is handled by the shard owning its fingerprint; e lends the scratch.
func (e *Engine) modifyRows(u db.Update, sources []*row, shards []*Engine) {
	if len(sources) == 0 {
		return
	}
	owner := func(fp uint64) *Engine {
		if shards == nil {
			return e
		}
		return shards[db.ShardOfFingerprint(fp, len(shards))]
	}
	for _, src := range sources {
		target := u.Target(src.tuple)
		owner(src.fp).captureContribution(e.mod.group(target, target.Fingerprint()), src)
	}
	for _, src := range sources {
		sh := owner(src.fp)
		sh.deleteRow(sh.tables[u.Rel], src)
	}
	pe := core.Var(e.cur)
	for _, g := range e.mod.order[:e.mod.n] {
		sh := owner(g.fp)
		sh.absorbModTarget(sh.tables[u.Rel], g, pe)
	}
	e.mod.reset()
}

func (e *Engine) simplify(x *core.Expr) *core.Expr {
	if e.zeroAxioms {
		return core.SimplifyZero(x)
	}
	return x
}

// ApplyTransaction runs a whole transaction (Begin, all queries, End)
// under the write lock. Its effects publish atomically to the read
// horizon at End: concurrent readers observe the database either
// before or after the transaction, never mid-way.
func (e *Engine) ApplyTransaction(t *db.Transaction) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.applyTransactionLocked(t)
}

func (e *Engine) applyTransactionLocked(t *db.Transaction) error {
	e.Begin(t.Label)
	for i := range t.Updates {
		if err := e.Apply(t.Updates[i]); err != nil {
			e.End()
			return fmt.Errorf("transaction %s, query %d: %w", t.Label, i, err)
		}
	}
	e.End()
	return nil
}

// ApplyAll runs a sequence of transactions. The write lock is taken per
// transaction, so readers observe transaction-granular progress during
// bulk ingestion; ctx is checked between transactions and aborts the
// remainder of the batch when cancelled. See ApplyBatch to learn how
// many transactions a cancelled or failed batch durably applied.
func (e *Engine) ApplyAll(ctx context.Context, txns []db.Transaction) error {
	_, err := e.ApplyBatch(ctx, txns)
	return err
}

// ApplyBatch is ApplyAll reporting progress: it returns the number of
// leading transactions durably applied (and visible to readers). On a
// nil error applied == len(txns); after a cancellation or failure the
// caller can resume from txns[applied:] without double-applying —
// transaction applied+1 itself was not executed (it failed before
// mutating anything, or was never started).
func (e *Engine) ApplyBatch(ctx context.Context, txns []db.Transaction) (applied int, err error) {
	for i := range txns {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return i, err
			}
		}
		if err := e.ApplyTransaction(&txns[i]); err != nil {
			return i, err
		}
	}
	return len(txns), nil
}

// Annotation returns the provenance expression of the tuple at the
// committed horizon, or nil if the tuple was never stored. In
// normal-form mode the expression is materialized from the NF
// representation. Lock-free: concurrent transactions never block it.
func (e *Engine) Annotation(rel string, t db.Tuple) *core.Expr {
	return e.annotationAt(rel, t, e.Horizon())
}

// NF returns the normal-form value of the tuple in ModeNormalForm at
// the committed horizon, or nil. The returned NF must not be mutated.
func (e *Engine) NF(rel string, t db.Tuple) *core.NF {
	return e.nfAt(rel, t, e.Horizon())
}

// EachRow calls f for every row of the relation visible at the
// committed horizon (including tombstones outside the support) with its
// tuple and annotation, in deterministic insertion order (the table
// list, the same order Specialize and SpecializeParallel stream rows) —
// never map order, so snapshot bytes and streamed results are stable
// across runs. In normal-form mode annotations are materialized per
// call. The pass is lock-free and the horizon is pinned on entry, so
// the visited rows form one consistent epoch snapshot even while
// transactions commit concurrently; f may freely call back into the
// engine.
func (e *Engine) EachRow(rel string, f func(t db.Tuple, ann *core.Expr)) {
	e.eachRowAt(rel, e.Horizon(), f)
}

// Rows calls f for every row visible at the committed horizon —
// relations in schema order, rows in insertion order — with the horizon
// pinned once for the whole pass, so the visited rows form one
// consistent snapshot even while transactions are applied concurrently.
// Snapshot saving uses this.
func (e *Engine) Rows(f func(rel string, t db.Tuple, ann *core.Expr)) {
	e.rowsAt(e.Horizon(), f)
}

// Relations returns the relation names in schema order.
func (e *Engine) Relations() []string { return e.schema.Names() }

// NumRows reports the total number of rows visible at the committed
// horizon, including tombstones and tuples outside the support (the
// paper's "database size" under provenance tracking, which exceeds the
// plain database by ~2% on TPC-C).
func (e *Engine) NumRows() int {
	return e.numRowsAt(e.Horizon())
}

// SupportSize reports the number of visible rows whose annotation is
// not syntactically zero.
func (e *Engine) SupportSize() int {
	return e.supportSizeAt(e.Horizon())
}

// ProvSize reports the total provenance size (tree size summed over all
// visible rows) — the size measure of the paper's Section 6.
func (e *Engine) ProvSize() int64 {
	return e.provSizeAt(e.Horizon())
}

// ProvDAGSize reports the number of distinct expression nodes backing
// all visible annotations: shared subterms — shared within a row,
// across rows, and across relations — are counted once. With
// hash-consed expressions this is the number of nodes actually held in
// memory for this engine's provenance, the companion measure to
// ProvSize's per-occurrence tree count (the paper's Fig. 7b/8b report
// the latter; the stats endpoint reports both).
func (e *Engine) ProvDAGSize() int64 {
	return e.provDAGSizeAt(make(map[*core.Expr]struct{}), e.Horizon())
}

// MinimizeAll applies the zero-axiom post-processing of Proposition 5.5
// to every stored annotation (normal-form mode only; the naive mode is
// deliberately axiom-free). It returns the provenance size after
// minimization. The pass is one write epoch: rows whose annotation
// actually shrinks get a new version, so pinned views taken before the
// pass keep reading the unminimized history. ctx is checked between
// relations; a cancelled pass leaves already-minimized rows minimized
// (minimization is idempotent and preserves equivalence, so a partial
// pass is still a correct state).
func (e *Engine) MinimizeAll(ctx context.Context) (int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.nextSeq == nil {
		e.beginOwnEpoch()
		e.beginEvent(CommitMinimize, "")
		n, err := e.minimizeAllLocked(ctx)
		e.commitOwnEpoch()
		return n, err
	}
	return e.minimizeAllLocked(ctx)
}

func (e *Engine) minimizeAllLocked(ctx context.Context) (int64, error) {
	var n int64
	for _, name := range e.schema.Names() {
		tbl := e.tables[name]
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return n, err
			}
		}
		for _, r := range tbl.list.snapshot() {
			v := r.latest()
			if e.mode != ModeNormalForm {
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
			wasMatchable := e.matchableV(v)
			nv := e.mutable(r)
			nv.setExpr(m)
			if e.collectEv {
				e.evRows = append(e.evRows, RowRef{Rel: name, Tuple: r.tuple})
			}
			// Minimization can collapse a zero-equivalent annotation
			// to syntactic 0, taking the row out of the support.
			if wasMatchable && !e.matchableV(nv) {
				e.indexDead(tbl, r)
			}
		}
	}
	return n, nil
}
