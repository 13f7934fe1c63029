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
// Deprecated: storage sharding was removed (EXPERIMENTS.md, "One storage
// partition"); the option is accepted so that existing callers compile,
// and n is ignored.
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
// an UP[X] annotation. It owns one storage partition (shard.go): the
// rows, their MVCC version chains, the columnar mirror, the indexes and
// the scan planner, behind one write lock. On top of it the engine keeps
// the epoch counter, the read horizon, the commit events and the views.
//
// Writes. A transaction is one write epoch: the engine takes the write
// lock, allocates the epoch, applies the updates in order, commits the
// epoch and releases the lock. Epochs therefore commit in allocation
// order, the table lists are in sequence order, the rows visible at a
// horizon are a prefix of them, and a transaction is visible when
// ApplyTransaction returns. A batch is its transactions applied one after
// another, in log order. Rows of epoch k carry seq = k<<32 | i, i
// counting the rows the epoch created, in update order.
//
// Reads are lock-free: Annotation, NF, EachRow, Rows, Select, the size
// measures, At and the package-level valuation entry points
// (Specialize, SpecializeParallel, BoolRestrict*, LiveChunks, …) pin
// the committed horizon on entry and resolve every row against the MVCC
// version chains, so any number of provenance-usage queries run against
// one consistent epoch while transactions commit concurrently. At(seq)
// pins an older horizon for time travel. The valuation passes walk the
// rows in parallel chunks (parallel.go); Theorem 5.3 locality — each
// row's normal form depends on that row's annotation and the query
// annotation only — is what lets them split the rows anywhere.
type Engine struct {
	mode   Mode
	schema *db.Schema
	cfg    config // the settings it was built with (see Options)
	sh     *shard

	// epoch numbers write epochs (transactions, restores, minimization
	// passes); it is the high half of every row sequence number.
	epoch atomic.Uint64

	// tracker publishes committed epochs: the read horizon and the commit
	// events (see mvcc.go).
	tracker epochTracker

	// hook is the commit-event subscriber, called by the tracker. rowBufs
	// recycles the events' Rows buffers: filled when an epoch ends, lent
	// to the hook for one call, wiped, and reused.
	hook    atomic.Pointer[CommitHook]
	rowMu   sync.Mutex
	rowBufs [][]RowRef

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

func newEngine(mode Mode, schema *db.Schema, cfg config) *Engine {
	e := &Engine{mode: mode, schema: schema, cfg: cfg, sh: newShard(mode, schema, cfg), boot: BootStats{Source: "empty"}}
	e.tracker.init(e.emit)
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

// evRowsKeep is the longest event row buffer kept for reuse (40 kB): one
// bulk transaction must not pin its row list for the engine's lifetime.
const evRowsKeep = 1024

// eventRows returns an empty Rows buffer for an epoch's event, recycled
// from an earlier event when emit has delivered one.
func (e *Engine) eventRows() []RowRef {
	e.rowMu.Lock()
	defer e.rowMu.Unlock()
	n := len(e.rowBufs)
	if n == 0 {
		return nil
	}
	buf := e.rowBufs[n-1]
	e.rowBufs = e.rowBufs[:n-1]
	return buf
}

// emit delivers one epoch's commit event. Called by the tracker under
// its mutex, strictly in epoch order, after the horizon store — so a
// subscriber reading At(ev.Seq) observes the committed epoch.
func (e *Engine) emit(ev CommitEvent) {
	if hp := e.hook.Load(); hp != nil {
		(*hp)(ev)
	}
	// Rows was lent for the call: wipe it, so the buffer pins no tuple
	// and a hook that kept the slice reads blanks instead of a later
	// epoch's rows.
	clear(ev.Rows)
	if c := cap(ev.Rows); c > 0 && c <= evRowsKeep {
		e.rowMu.Lock()
		e.rowBufs = append(e.rowBufs, ev.Rows[:0])
		e.rowMu.Unlock()
	}
}

// --- write epochs -------------------------------------------------------

// begin takes the write lock and opens a write epoch, returning its
// number; collect reports whether a hook is installed and the epoch's
// rows are wanted. The epoch is allocated under the lock, so epochs apply
// in the order they are numbered.
func (e *Engine) begin(label string) (uint64, bool) {
	e.sh.mu.Lock()
	epoch := e.epoch.Add(1)
	collect := e.hook.Load() != nil
	e.sh.open(epoch, label, collect)
	return epoch, collect
}

// finish ends the epoch, commits it — the read horizon advances to it and
// its event is announced — and releases the write lock: every epoch
// commits before the next one begins. An epoch that ran without a hook
// collected no rows; should one have been installed since, it hears a
// CommitReset — the subscriber rebuilds from the horizon, which covers
// the epoch — rather than an empty transaction that would silently skip
// the epoch's rows.
func (e *Engine) finish(epoch uint64, kind CommitKind, label string, collect bool) {
	ev := CommitEvent{Kind: CommitReset}
	if collect {
		ev = CommitEvent{Kind: kind, Label: label, Rows: e.eventRows()}
	}
	ev.Rows = e.sh.end(ev.Rows)
	e.tracker.commit(epoch, ev)
	e.sh.mu.Unlock()
}

// ApplyTransaction runs a whole transaction as one write epoch. Its
// effects publish atomically to the read horizon when it commits:
// concurrent readers observe the database either before or after the
// transaction, never mid-way. The touched rows freeze and the epoch
// commits whether or not a query fails, so a failed transaction's earlier
// queries stay applied. Every transaction reaches storage through here —
// direct calls, batches, recovery, a follower's replay — and each update
// passes checkUpdate right before it applies. t is borrowed for the call:
// the engine keeps its Label (inside the query annotation) and the Row of
// an insertion that creates a row, nothing else.
func (e *Engine) ApplyTransaction(t *db.Transaction) error {
	epoch, collect := e.begin(t.Label)
	var err error
	for i := range t.Updates {
		if cerr := checkUpdate(e.schema, &t.Updates[i]); cerr != nil {
			err = fmt.Errorf("transaction %s, query %d: %w", t.Label, i, cerr)
			break
		}
		e.sh.apply(t.Updates[i])
	}
	e.finish(epoch, CommitTxn, t.Label, collect)
	return err
}

// checkUpdate admits an update to storage, or a selection to the
// planner: db.Update.Validate is this repository's definition of the
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
// the batch transaction by transaction. txns is borrowed like
// ApplyTransaction's t.
func (e *Engine) ApplyBatch(ctx context.Context, txns []db.Transaction) (applied int, err error) {
	if ctx == nil {
		ctx = context.Background()
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
// existing row for the same tuple. It is the inverse of EachRow and is
// used by snapshot loading (package provstore). Each restore is its own
// write epoch, committed like a transaction.
func (e *Engine) RestoreRow(rel string, t db.Tuple, ann *core.Expr) error {
	epoch, collect := e.begin("")
	err := e.sh.restoreRow(rel, t, t.Fingerprint(), ann)
	e.finish(epoch, CommitRestore, "", collect)
	return err
}

// restoreItem is one add of a Restore on its way to storage.
type restoreItem struct {
	rel string
	t   db.Tuple
	ann *core.Expr
}

// Restore is RestoreRow in bulk, for snapshot loading: fill runs inside
// one write epoch and stores a row with each call of add, in call order;
// the epoch commits — one CommitRestore — when fill returns, with the
// rows added before an error kept. fill runs beside the stores (see
// pipe): a decoder reads and interns the next rows while these go in, so
// add answers for an earlier row's failure, and Restore returns the first
// failure in row order, a store's before fill's own.
func (e *Engine) Restore(fill func(add func(rel string, t db.Tuple, ann *core.Expr) error) error) error {
	epoch, collect := e.begin("")
	defer e.finish(epoch, CommitRestore, "", collect)
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
			if err := e.sh.restoreRow(it.rel, it.t, it.t.Fingerprint(), it.ann); err != nil {
				return err
			}
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
	epoch, collect := e.begin("")
	defer e.finish(epoch, CommitMinimize, "", collect)
	return e.sh.minimize(ctx)
}

// --- secondary indexes --------------------------------------------------

// BuildIndex creates a hash index on the named attribute of the
// relation. Subsequent updates whose selection pattern constrains that
// attribute to a constant may use the index instead of a full scan. Any
// number of indexes may coexist per relation — building a second one on
// a different attribute never replaces the first — and building an index
// that already exists is a no-op (the index is already complete; an
// advisor-built index is adopted as manual so DropIndex semantics stay
// predictable). The index records as its history watermark the newest
// epoch allocated, read under the write lock, so a historical scan never
// mistakes an index built after an epoch for one that covers it.
func (e *Engine) BuildIndex(rel, attr string) error {
	e.sh.mu.Lock()
	defer e.sh.mu.Unlock()
	return e.sh.buildIndex(rel, attr, EpochSeq(e.epoch.Load()))
}

// DropIndex removes the index on the named attribute, or returns
// ErrUnknownIndex (the HTTP layer maps it to 404) when there is none. The
// relation must exist either way.
func (e *Engine) DropIndex(rel, attr string) error {
	e.sh.mu.Lock()
	defer e.sh.mu.Unlock()
	return e.sh.dropIndex(rel, attr)
}

// IndexStats reports every index of the engine — relations in schema
// order, attributes in column order.
func (e *Engine) IndexStats() []IndexInfo { return e.sh.indexStats() }

// PlannerStats reports the scan planner's counters.
func (e *Engine) PlannerStats() PlannerStats { return e.sh.idx.stats() }
