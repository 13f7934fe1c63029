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

// config collects the engine settings; Options mutate it before
// construction.
type config struct {
	cow        bool
	zeroAxioms bool
	liveMatch  bool
	autoIndex  int
	initAnnot  func(rel string, t db.Tuple) core.Annot
}

func newConfig(opts []Option) config {
	c := config{cow: true}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// Option configures an engine (see New).
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

// WithShards sets nothing: an engine stores its rows in one partition.
//
// Deprecated: storage sharding was removed (CHANGES.md, PR 26); n is
// ignored. The option stays only because the wire benchmark (bench/e2e)
// still passes WithShards(1), which is to be dropped there first.
func WithShards(n int) Option {
	return func(*config) {}
}

// WithAutoIndex enables the adaptive index advisor: once a column has
// been pinned to an =-constant by threshold scans without an index of
// its own, the engine builds the index automatically and the planner
// starts using it. threshold <= 0 disables auto-indexing (the default);
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
// an UP[X] annotation. One object owns it all: the rows with their MVCC
// version chains and columnar mirror (apply.go, storage.go), the indexes
// and the scan planner of the write path (index.go), the epoch counter,
// the read horizon, the commit events and the views (mvcc.go). Writers
// serialize on one mutex; readers take no lock.
//
// Writes. A transaction is one write epoch: the engine takes the write
// lock, allocates the epoch, applies the updates in order, commits the
// epoch and releases the lock. Epochs therefore commit in allocation
// order, a table's positions are in the order of the epochs that created
// them, and a transaction is visible when ApplyTransaction returns. A row's
// first version is born in the epoch that created it, so the rows visible
// at a horizon are a prefix of the positions. A batch is its transactions
// applied one after another, in log order, its unindexed =-selections
// sharing one pass per column (batchScan).
//
// Reads are lock-free: Annotation, NF, EachRow, Rows, Select,
// SelectEach, the size measures, At and the package-level valuation
// entry points (Specialize, SpecializeParallel, BoolRestrict*,
// LiveStream, …) pin the committed horizon on entry and resolve every
// row against the MVCC version chains, so any number of
// provenance-usage queries run against one consistent epoch while
// transactions commit concurrently; none uses an index. At(seq) pins an
// older horizon for time travel. The valuation passes walk the rows in
// parallel chunks (parallel.go); Theorem 5.3 locality — each row's
// normal form depends on that row's annotation and the query annotation
// only — is what lets them split the rows anywhere.
type Engine struct {
	// mu serializes writers — write epochs, BuildIndex and DropIndex —
	// and IndexStats, which reads the writer-owned indexes. No other read
	// takes it.
	mu sync.Mutex

	mode   Mode
	schema *db.Schema
	cfg    config // the settings it was built with (see Options)
	tables map[string]*table

	// epoch numbers write epochs (transactions, restores, minimization
	// passes, index DDL). Under mu it is the epoch in flight. restored is
	// MVCCStats.RestoreEpoch.
	epoch    atomic.Uint64
	restored uint64

	// The write epoch in flight, set by begin: the query annotation its
	// updates carry and whether a hook wants its rows. touched lists the
	// rows it writes, each once, with the table holding them and the open
	// normal form it writes (see mutable): finish freezes each into the
	// row's next version and names the rows in the event.
	cur     core.Annot
	collect bool
	touched []touchedRow

	// horizon is the committed epoch and note wakes its waiters:
	// finish stores the one and rings the other (mvcc.go).
	horizon atomic.Uint64
	note    Note

	// hook is the commit-event subscriber. evRows is the events' Rows
	// buffer: filled by finish, lent to the hook for one call, wiped and
	// reused.
	hook   atomic.Pointer[CommitHook]
	evRows []RowRef

	// plan holds the scan planner's counters (index.go).
	plan planCounters

	// Writer-owned scratch, guarded by the write lock like every other
	// scan-path structure: the free-list recycling scan result buffers
	// (see storage.go), the grouping state of the modification in flight,
	// the open records of the epoch's normal forms (taken back by finish),
	// the tuple a fully pinned selection probes with, a modification's
	// source built from its words and its staged target (no row, group or
	// event holds them) and the column passes of the batch in flight (see
	// batchScan).
	scanBufs [][]*row
	mod      modScratch
	nfs      core.NFRecords
	pinned   db.Tuple
	source   db.Tuple
	staged   db.Tuple
	batch    batchScan

	boot BootStats // see Boot
}

// New builds an engine in the given mode from an initial database: Load
// over the database's rows — relation order, then sorted-key order. The
// input database is not modified or referenced afterwards.
func New(mode Mode, initial *db.Database, opts ...Option) *Engine {
	e, err := Load(mode, initial.Schema(), initial.Rows, opts...)
	if err != nil {
		panic(err) // a Database delivers its own schema's tuples, in order
	}
	return e
}

// NewEmpty is New over a schema with no initial tuples, for snapshot
// restoration and streaming ingestion.
func NewEmpty(mode Mode, schema *db.Schema, opts ...Option) *Engine {
	return newEngine(mode, schema, newConfig(opts))
}

// newEngine builds an engine with empty tables for every relation, epoch
// 0 (the initial rows) visible.
func newEngine(mode Mode, schema *db.Schema, cfg config) *Engine {
	e := &Engine{mode: mode, schema: schema, cfg: cfg, tables: make(map[string]*table), boot: BootStats{Source: "empty"}}
	for _, name := range schema.Names() {
		e.tables[name] = newTable(schema.Relation(name))
	}
	return e
}

// Options returns the settings e was built with, as options: an engine
// built with them behaves as e does (a snapshot load that replaces e
// keeps its index advisor, matching and axioms).
func (e *Engine) Options() []Option {
	c := e.cfg
	return []Option{func(d *config) { *d = c }}
}

// Mode reports the provenance representation in use.
func (e *Engine) Mode() Mode { return e.mode }

// Schema returns the database schema.
func (e *Engine) Schema() *db.Schema { return e.schema }

// Relations returns the relation names in schema order.
func (e *Engine) Relations() []string { return e.schema.Names() }

// --- commit events ------------------------------------------------------

// SetCommitHook installs (or, with nil, removes) the commit-event
// subscriber. At most one hook is installed at a time; see CommitHook
// for the contract it must honour. An epoch in flight while the hook is
// installed is announced as a CommitReset (see finish).
func (e *Engine) SetCommitHook(h CommitHook) {
	if h == nil {
		e.hook.Store(nil)
		return
	}
	e.hook.Store(&h)
}

// evRowsKeep is the longest event row buffer, and touched list, kept for
// reuse (24 and 32 kB): one bulk transaction must not pin its row list for
// the engine's lifetime.
const evRowsKeep = 1024

// emit delivers one epoch's commit event. finish calls it under the write
// lock, strictly in epoch order, after the horizon store — so a
// subscriber reading At(ev.Epoch) observes the committed epoch.
func (e *Engine) emit(ev CommitEvent) {
	if hp := e.hook.Load(); hp != nil {
		(*hp)(ev)
	}
	// Rows was lent for the call: wipe it, so a hook that kept the slice
	// reads blanks instead of a later epoch's rows.
	clear(ev.Rows)
	if c := cap(ev.Rows); c > 0 && c <= evRowsKeep {
		e.evRows = ev.Rows[:0]
	}
}

// --- write epochs -------------------------------------------------------

// begin takes the write lock and opens a write epoch: versions it writes
// are born in the epoch, the first versions of the rows it creates
// included, and label names the query annotation of a transaction's
// updates. The epoch is allocated under the lock, so epochs apply in the
// order they are numbered; collect records whether a hook is installed
// and the epoch's rows are wanted.
func (e *Engine) begin(label string) {
	e.mu.Lock()
	e.epoch.Add(1)
	e.collect = e.hook.Load() != nil
	e.cur = core.QueryAnnot(label)
}

// finish ends the epoch, commits it and releases the write lock: every
// epoch commits before the next one begins. The forms the epoch wrote
// freeze, each appended as its row's next version, so that the next
// epoch (with a different annotation) layers on top; then the read
// horizon advances to the epoch, its event is announced and horizon
// waiters wake. An epoch that ran without a hook collected no rows; should one have been installed since, it hears a
// CommitReset — the subscriber rebuilds from the horizon, which covers
// the epoch — rather than an empty transaction that would silently skip
// the epoch's rows.
func (e *Engine) finish(kind CommitKind, label string) {
	epoch := e.epoch.Load()
	ev := CommitEvent{Epoch: epoch, Kind: CommitReset}
	if e.collect {
		ev.Kind, ev.Label, ev.Rows, e.evRows = kind, label, e.evRows, nil
	}
	for i := range e.touched {
		t := &e.touched[i]
		e.nfs.Freeze(&t.nf)
		t.tbl.push(t.r, t.nf.Base(), uint32(epoch))
		if e.collect {
			ev.Rows = append(ev.Rows, RowRef{Rel: t.tbl.rel.Name, Pos: t.r.pos})
		}
	}
	if e.touched = e.touched[:0]; cap(e.touched) > evRowsKeep {
		e.touched = nil
	}
	e.horizon.Store(epoch)
	e.emit(ev)
	e.note.Wake()
	e.mu.Unlock()
}

// ApplyTransaction runs a whole transaction as one write epoch. Its
// effects publish atomically to the read horizon when it commits:
// concurrent readers observe the database either before or after the
// transaction, never mid-way. The touched rows freeze and the epoch
// commits whether or not a query fails, so a failed transaction's earlier
// queries stay applied. Every transaction reaches storage through here —
// direct calls, batches, recovery, a follower's replay — and each update
// passes checkUpdate right before it applies. t is borrowed for the call:
// the engine keeps its Label (inside the query annotation), nothing else —
// an inserted row's values are copied into the word columns.
func (e *Engine) ApplyTransaction(t *db.Transaction) error {
	e.begin(t.Label)
	var err error
	for i := range t.Updates {
		if cerr := checkUpdate(e.schema, &t.Updates[i]); cerr != nil {
			err = fmt.Errorf("transaction %s, query %d: %w", t.Label, i, cerr)
			break
		}
		e.apply(t.Updates[i])
	}
	e.finish(CommitTxn, t.Label)
	return err
}

// checkUpdate admits an update to storage, or a selection to Select:
// db.Update.Validate is this repository's definition of the
// hyperplane fragment (arity, kinds, no repeated variable), the only
// updates Prop. 3.5 and Thm. 5.3 speak about, and the storage layer
// below indexes columns by it unguarded. It allocates nothing on an
// update it admits.
func checkUpdate(s *db.Schema, u *db.Update) error {
	if err := u.Validate(s); err != nil {
		if s.Relation(u.Rel) == nil {
			return fmt.Errorf("engine: %w %s", ErrUnknownRelation, u.Rel)
		}
		return fmt.Errorf("engine: %w: %v", ErrBadTuple, err)
	}
	return nil
}

// ApplyAll runs a sequence of transactions; see ApplyBatch, which also
// reports how many of them a cancelled or failed batch durably applied.
func (e *Engine) ApplyAll(ctx context.Context, txns []db.Transaction) error {
	_, err := e.ApplyBatch(ctx, txns)
	return err
}

// ApplyBatch applies a batch of transactions in log order, one
// ApplyTransaction after another, and returns how many applied. On a nil
// error applied == len(txns). Otherwise txns[:applied] applied,
// txns[applied] failed — its queries before the failing one stay applied,
// as ApplyTransaction leaves them — or was not started because ctx was
// done (checked before each transaction), and nothing after it ran: WAL
// recovery and replication resume from txns[applied:]. Readers observe
// the batch transaction by transaction; its full scans share column
// passes (batchScan), which select the rows each would alone, in the same
// order. txns is borrowed like ApplyTransaction's t.
func (e *Engine) ApplyBatch(ctx context.Context, txns []db.Transaction) (applied int, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if e.prepareBatch(txns) {
		defer e.endBatch()
	}
	for i := range txns {
		if err := ctx.Err(); err != nil {
			return i, err
		}
		if err := e.ApplyTransaction(&txns[i]); err != nil {
			return i, err
		}
	}
	return len(txns), nil
}

// RestoreRow stores a tuple with an explicit annotation, overwriting any
// existing row for the same tuple: the inverse of EachRow. Each restore
// is its own write epoch, committed like a transaction; one that fails
// (unknown relation, bad tuple) takes none.
func (e *Engine) RestoreRow(rel string, t db.Tuple, ann *core.Expr) error {
	tbl, err := e.restoreTable(rel, t)
	if err != nil {
		return err
	}
	e.begin("")
	e.restoreRow(tbl, t, t.Fingerprint(), ann)
	e.finish(CommitRestore, "")
	return nil
}

// restoreItem is one add of a Restore on its way to storage.
type restoreItem struct {
	rel string
	t   db.Tuple
	ann *core.Expr
}

// Restore is RestoreRow in bulk, for snapshot loading into a new engine:
// fill runs inside the write epoch numbered epoch, the engine's first
// state, and stores a row with each call of add, in call order; the
// epoch commits — one CommitRestore — when fill returns, with the rows
// added before an error kept. A tuple added twice keeps the later
// annotation and is one row of the event. fill runs beside the stores
// (see pipe): a decoder reads and interns the next rows while these go
// in, so add answers for an earlier row's failure, and Restore returns
// the first failure in row order, a store's before fill's own.
func (e *Engine) Restore(epoch uint64, fill func(add func(rel string, t db.Tuple, ann *core.Expr) error) error) error {
	e.begin("")
	e.epoch.Store(epoch)
	e.restored = epoch
	defer e.finish(CommitRestore, "")
	_, _, err := pipe(func(emit func([]restoreItem) error) error {
		batch := make([]restoreItem, 0, 256)
		err := fill(func(rel string, t db.Tuple, ann *core.Expr) (err error) {
			if batch = append(batch, restoreItem{rel, t, ann}); len(batch) == cap(batch) {
				err = emit(batch)
				batch = make([]restoreItem, 0, cap(batch))
			}
			return err
		})
		if eerr := emit(batch); err == nil {
			err = eerr
		}
		return err
	}, func(batch []restoreItem) error {
		for _, it := range batch {
			tbl, err := e.restoreTable(it.rel, it.t)
			if err != nil {
				return err
			}
			e.restoreRow(tbl, it.t, it.t.Fingerprint(), it.ann)
		}
		return nil
	})
	return err
}

// MinimizeAll applies the zero-axiom post-processing of Proposition 5.5
// to every stored annotation (normal-form mode only; the naive mode is
// deliberately axiom-free) and returns the provenance size after
// minimization. The pass is one write epoch: rows whose annotation
// actually shrinks get a new version, so pinned views taken before the
// pass keep reading the unminimized history. ctx is checked between
// relations; a cancelled pass leaves already-minimized rows minimized
// (minimization is idempotent and preserves equivalence, so a partial
// pass is still a correct state).
func (e *Engine) MinimizeAll(ctx context.Context) (int64, error) {
	e.begin("")
	defer e.finish(CommitMinimize, "")
	var n int64
	for _, name := range e.schema.Names() {
		tbl := e.tables[name]
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return n, err
			}
		}
		tbl.cols.eachRows(0, tbl.cols.len(), func(rows []row) {
			for i := range rows {
				r := &rows[i]
				old := tbl.newest(r)
				if e.mode != ModeNormalForm {
					n += old.Size()
					continue
				}
				m := core.Minimize(old)
				n += m.Size()
				if m == old {
					// Hash-consing makes no-op minimizations pointer-equal:
					// skip the version churn for already-minimal rows.
					continue
				}
				e.setBase(tbl, r, m)
			}
		})
	}
	return n, nil
}
