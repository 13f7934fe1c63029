package engine

import (
	"context"
	"fmt"
	"sort"
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

// WithShards partitions the engine's rows across n storage shards with
// independent write locks (default and minimum 1). Like an index, the
// shard count is an access-path choice: annotations, row order and
// snapshot bytes are identical for every n.
func WithShards(n int) Option {
	return func(c *config) { c.shards = n }
}

// WithAutoIndex enables the adaptive index advisor: once a column has
// been pinned to an =-constant by threshold scans without an index of
// its own, the engine builds the index automatically and the planner
// starts using it (each shard advises its own partition). threshold <= 0
// disables auto-indexing (the default); manual BuildIndex works either
// way. Indexes never change results — only access paths — so enabling
// this is always safe.
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
// an UP[X] annotation. It is one coordinator — the epoch counter, the
// epoch tracker that turns commits into a monotone read horizon and
// in-order commit events, and update routing — over N ≥ 1 storage
// shards (WithShards) that partition every relation's rows by tuple
// fingerprint, each behind its own write lock, so concurrent callers
// whose transactions touch disjoint shards apply in parallel. A batch
// is its transactions applied one after another, in log order, on
// every shard count.
//
// Writes. An update whose =-constant constraints pin every attribute
// (db.Update.RouteTuples) touches one known row and locks only the
// shard owning it; all other updates — free variables, ≠ constraints —
// lock every shard and fan out in parallel. Theorem 5.3 locality makes
// the fan-out sound: each row's normal form depends only on that row's
// annotation and the query annotation, never on other rows, so disjoint
// partitions maintain it independently. The one cross-row construct,
// the Σ over a modification's sources, is merged by the coordinator in
// global row order before the targets absorb it. Rows of epoch k carry
// seq = k<<32 | i (i counting creations within the epoch, in update
// order, across shards), so merging the per-shard lists by seq
// reconstructs one insertion order whatever the partition — and for the
// same initial database and log an engine holds the same interned
// annotation pointers, streams rows in the same order and saves
// byte-identical snapshots for every shard count, at every committed
// epoch (the differential tests check exactly that against N = 1).
//
// With one shard there is nothing to route or merge, and the engine
// observes that, not an option: every epoch is allocated under the
// shard's write lock and committed before the lock is released, so
// epochs commit in allocation order, the table lists are in sequence
// order and the rows visible at a horizon are a prefix of them.
//
// Reads are lock-free: Annotation, NF, EachRow, Rows, Select, the size
// measures, At and the package-level valuation entry points
// (Specialize, SpecializeParallel, BoolRestrict*, LiveChunks, …) pin
// the committed horizon on entry and resolve every row against the MVCC
// version chains, so any number of provenance-usage queries run against
// one consistent epoch while transactions commit concurrently. At(seq)
// pins an older horizon for time travel.
type Engine struct {
	mode   Mode
	schema *db.Schema
	shards []*shard
	all    []int // 0..len(shards)-1, the fan-out lock set

	// epoch numbers write epochs (transactions, restores, minimization
	// passes); it is the high half of every row sequence number.
	epoch atomic.Uint64

	// tracker converts epoch commits, which concurrent writers on
	// disjoint shards deliver out of order, into the monotone read
	// horizon and the in-order event stream (see mvcc.go).
	tracker epochTracker

	// hook is the commit-event subscriber, called by the tracker. rowBufs
	// recycles the events' Rows buffers: filled when an epoch ends, lent
	// to the hook for one call, wiped, and reused.
	hook    atomic.Pointer[CommitHook]
	rowMu   sync.Mutex
	rowBufs [][]RowRef

	boot BootStats // see Boot

	routedTxns     atomic.Uint64 // locked a single shard
	rendezvousTxns atomic.Uint64 // pinned, spanning several shards
	fanoutTxns     atomic.Uint64 // evaluated against every shard of several
}

// New builds an engine in the given mode from an initial database, over
// WithShards(n) storage shards (default 1): Load over the database's rows
// — relation order, then sorted-key order. The input database is not
// modified or referenced afterwards.
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

func newEngine(mode Mode, schema *db.Schema, cfg *config) *Engine {
	e := &Engine{mode: mode, schema: schema, all: make([]int, cfg.shards), boot: BootStats{Source: "empty"}}
	e.tracker.init(e.emit)
	for i := range e.all {
		e.all[i] = i
		e.shards = append(e.shards, newShard(mode, schema, cfg))
	}
	return e
}

// Mode reports the provenance representation in use.
func (e *Engine) Mode() Mode { return e.mode }

// Schema returns the database schema.
func (e *Engine) Schema() *db.Schema { return e.schema }

// Relations returns the relation names in schema order.
func (e *Engine) Relations() []string { return e.schema.Names() }

// NumShards reports the number of storage shards.
func (e *Engine) NumShards() int { return len(e.shards) }

// owner returns the shard holding the rows of fingerprint fp.
func (e *Engine) owner(fp uint64) *shard {
	return e.shards[db.ShardOfFingerprint(fp, len(e.shards))]
}

// fan runs f on every shard of the set, concurrently when there are
// several; i is the shard's position in the set. Writers call it with
// the set's write locks held, readers lock-free.
func (e *Engine) fan(set []int, f func(i int, sh *shard)) {
	if len(set) == 1 {
		f(0, e.shards[set[0]])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(set))
	for i, si := range set {
		go func(i int, sh *shard) {
			defer wg.Done()
			f(i, sh)
		}(i, e.shards[si])
	}
	wg.Wait()
}

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

// begin opens a write epoch over the sorted shard set and returns its
// number, with the set's write locks held until finish; collect reports
// whether a hook is installed and the epoch's rows are wanted. Locks are
// taken in ascending order (the global lock order; keeps concurrent
// multi-shard epochs deadlock-free) and the epoch is allocated under
// them, so epochs reach every shard in allocation order: two that share
// a shard apply in the order they are numbered.
func (e *Engine) begin(set []int, label string) (uint64, bool) {
	for _, si := range set {
		e.shards[si].mu.Lock()
	}
	epoch := e.epoch.Add(1)
	collect := e.hook.Load() != nil
	created := e.shards[set[0]].counter()
	for _, si := range set {
		e.shards[si].open(epoch, created, label, collect)
	}
	return epoch, collect
}

// finish ends the epoch on every shard of the set, releases the locks
// and commits the epoch to the tracker, which advances the read horizon
// once every earlier epoch has committed too and announces the epoch
// then. A lone shard commits before it unlocks: its epochs, allocated
// under the lock, then commit in order too — none parks in the tracker,
// and a transaction is visible when ApplyTransaction returns. An epoch
// that ran without a hook collected no rows; should one have been
// installed since, it hears a CommitReset — the subscriber rebuilds from
// the horizon, which covers the epoch — rather than an empty transaction
// that would silently skip the epoch's rows.
func (e *Engine) finish(set []int, epoch uint64, kind CommitKind, label string, collect bool) {
	ev := CommitEvent{Kind: CommitReset}
	if collect {
		ev = CommitEvent{Kind: kind, Label: label, Rows: e.eventRows()}
	}
	for _, si := range set {
		ev.Rows = e.shards[si].end(ev.Rows)
	}
	if len(e.shards) == 1 {
		e.tracker.commit(epoch, ev)
		e.shards[0].mu.Unlock()
		return
	}
	for _, si := range set {
		e.shards[si].mu.Unlock()
	}
	e.tracker.commit(epoch, ev)
}

// route classifies a transaction. On an engine of several shards
// dest[i] is the one shard update i can find rows on — the shard of an
// insertion's row or of a fully constant selection's tuple — or -1 when
// the selection may match anywhere, and set is the sorted lock set:
// those shards plus the targets of pinned modifications, or every shard
// as soon as one update is unpinned. Each update is analysed once;
// apply reuses dest. A lone shard is every update's destination, which
// a nil dest says without analysing anything.
func (e *Engine) route(t *db.Transaction) (set, dest []int) {
	n := len(e.shards)
	if n == 1 {
		e.routedTxns.Add(1)
		return e.all, nil
	}
	dest = make([]int, len(t.Updates))
	locked := make([]bool, n)
	pinned := true
	for i := range t.Updates {
		tuples, ok := t.Updates[i].RouteTuples()
		if !ok {
			dest[i], pinned = -1, false
			continue
		}
		for j, tu := range tuples {
			si := db.ShardOfTuple(tu, n)
			locked[si] = true
			if j == 0 {
				dest[i] = si
			}
		}
	}
	if !pinned {
		e.fanoutTxns.Add(1)
		return e.all, dest
	}
	for si, in := range locked {
		if in {
			set = append(set, si)
		}
	}
	switch len(set) {
	case 0:
		set = e.all[:1] // an empty transaction still commits its epoch
		fallthrough
	case 1:
		e.routedTxns.Add(1)
	default:
		e.rendezvousTxns.Add(1)
	}
	return set, dest
}

// apply runs one transaction as a write epoch over its lock set: the
// touched rows freeze and the epoch commits whether or not a query
// fails, so a failed transaction's earlier queries stay applied. Every
// transaction reaches storage through here — direct calls, batches,
// recovery, a follower's replay — and each update passes checkUpdate
// right before it applies.
func (e *Engine) apply(t *db.Transaction, set, dest []int) error {
	epoch, collect := e.begin(set, t.Label)
	var err error
	for i := range t.Updates {
		d := 0
		if dest != nil {
			d = dest[i]
		}
		if cerr := checkUpdate(e.schema, &t.Updates[i]); cerr != nil {
			err = fmt.Errorf("transaction %s, query %d: %w", t.Label, i, cerr)
			break
		}
		e.applyUpdate(t.Updates[i], set, d)
	}
	e.finish(set, epoch, CommitTxn, t.Label, collect)
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

// applyUpdate executes one checked update query of the open transaction:
// on shard d when routing pinned it there (the planner then answers a
// fully constant selection with a point lookup), across the locked set
// otherwise.
func (e *Engine) applyUpdate(u db.Update, set []int, d int) {
	if d < 0 {
		e.fanUpdate(u, set)
		return
	}
	sh := e.shards[d]
	tbl := sh.tables[u.Rel]
	switch u.Kind {
	case db.OpInsert:
		sh.insert(tbl, u.Row)
	case db.OpDelete:
		sh.delete(tbl, u)
	case db.OpModify:
		sources := sh.scan(tbl, u)
		e.modifyRows(sh, u, sources)
		sh.putScanBuf(sources)
	}
}

// fanUpdate executes an unpinned update — a deletion or a modification,
// an insertion's row always pins it — on every shard of the set. (Its
// own function: the closures move u to the heap, which a pinned update
// must not pay for.)
func (e *Engine) fanUpdate(u db.Update, set []int) {
	if u.Kind == db.OpModify {
		e.fanModify(u, set)
		return
	}
	// Deletions touch rows in place, so shards need no coordination
	// beyond the locks already held.
	e.fan(set, func(_ int, sh *shard) { sh.delete(sh.tables[u.Rel], u) })
}

// fanModify evaluates an unpinned modification: every shard scans its
// partition in parallel, then the coordinator merges the matched
// sources by global row order — the one-shard scan order, so Σ summand
// order and the self-map shape come out identical — and runs the
// modification across shards on the first shard's scratch.
func (e *Engine) fanModify(u db.Update, set []int) {
	per := make([][]*row, len(set))
	e.fan(set, func(i int, sh *shard) { per[i] = sh.scan(sh.tables[u.Rel], u) })
	first := e.shards[set[0]]
	sources := first.getScanBuf()
	for i, si := range set {
		sources = append(sources, per[i]...)
		// Scan buffers recycle to the shard that lent them (its write
		// lock is still held by this coordinator).
		e.shards[si].putScanBuf(per[i])
	}
	// Row sequence numbers are globally unique, so this order is total
	// and deterministic.
	sort.Slice(sources, func(i, j int) bool { return sources[i].seq < sources[j].seq })
	e.modifyRows(first, u, sources)
	first.putScanBuf(sources)
}

// modifyRows runs a modification over the given source rows, which
// arrive in global scan order: capture every source's pre-query
// contribution into its target's group, delete the sources (−M p), then
// let each target absorb old +M ((Σ sources) ·M p); a target that is
// itself a source (necessarily a self-map) absorbs into its
// post-deletion annotation, yielding the paper's fifth normal-form
// shape. Sources and targets may live on any locked shard and each row
// is handled by the shard owning its fingerprint; lender lends the
// grouping scratch.
func (e *Engine) modifyRows(lender *shard, u db.Update, sources []*row) {
	if len(sources) == 0 {
		return
	}
	mod := &lender.mod
	for _, src := range sources {
		target := u.Target(src.tuple)
		e.owner(src.fp).captureContribution(mod.group(target, target.Fingerprint()), src)
	}
	for _, src := range sources {
		sh := e.owner(src.fp)
		sh.deleteRow(sh.tables[u.Rel], src)
	}
	pe := core.Var(lender.cur)
	for _, g := range mod.order[:mod.n] {
		sh := e.owner(g.fp)
		sh.absorbModTarget(sh.tables[u.Rel], g, pe)
	}
	mod.reset()
}

// ApplyTransaction runs a whole transaction under the write locks of
// exactly the shards it can touch; transactions over disjoint shards
// proceed concurrently. Its effects publish atomically to the read
// horizon when its epoch and every earlier one have committed:
// concurrent readers observe the database either before or after the
// transaction, never mid-way. t is borrowed for the call: the engine
// keeps its Label (inside the query annotation) and the Row of an
// insertion that creates a row, nothing else.
func (e *Engine) ApplyTransaction(t *db.Transaction) error {
	set, dest := e.route(t)
	return e.apply(t, set, dest)
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
// recovery and replication resume from txns[applied:]. The state is the
// same on every shard count, down to the snapshot bytes, and readers
// observe it transaction by transaction. txns is borrowed like
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

// RestoreRow stores a tuple with an explicit annotation on the shard
// owning it, overwriting any existing row for the same tuple. It is the
// inverse of EachRow and is used by snapshot loading (package
// provstore). Each restore is its own write epoch, committed to the
// tracker like a transaction.
func (e *Engine) RestoreRow(rel string, t db.Tuple, ann *core.Expr) error {
	fp := t.Fingerprint()
	si := db.ShardOfFingerprint(fp, len(e.shards))
	set := e.all[si : si+1]
	epoch, collect := e.begin(set, "")
	err := e.shards[si].restoreRow(rel, t, fp, ann)
	e.finish(set, epoch, CommitRestore, "", collect)
	return err
}

// restoreItem is one add of a Restore on its way to the shards.
type restoreItem struct {
	rel string
	t   db.Tuple
	ann *core.Expr
}

// Restore is RestoreRow in bulk, for snapshot loading: fill runs inside
// one write epoch spanning every shard and stores a row with each call of
// add, in call order; the epoch commits — one CommitRestore — when fill
// returns, with the rows added before an error kept. fill runs beside the
// stores (see pipe): a decoder reads and interns the next rows while
// these go in, so add answers for an earlier row's failure, and Restore
// returns the first failure in row order, a store's before fill's own.
func (e *Engine) Restore(fill func(add func(rel string, t db.Tuple, ann *core.Expr) error) error) error {
	epoch, collect := e.begin(e.all, "")
	defer e.finish(e.all, epoch, CommitRestore, "", collect)
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
			fp := it.t.Fingerprint()
			if err := e.owner(fp).restoreRow(it.rel, it.t, fp, it.ann); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// MinimizeAll applies the zero-axiom post-processing of Proposition 5.5
// to every stored annotation (normal-form mode only; the naive mode is
// deliberately axiom-free), every shard's partition in parallel under
// all write locks, and returns the provenance size after minimization
// (the per-shard sizes merge by summation — deterministic regardless of
// completion order). The pass is one write epoch: rows whose annotation
// actually shrinks get a new version, so pinned views taken before the
// pass keep reading the unminimized history. ctx is checked between
// relations; a cancelled pass leaves already-minimized rows minimized
// (minimization is idempotent and preserves equivalence, so a partial
// pass is still a correct state).
func (e *Engine) MinimizeAll(ctx context.Context) (int64, error) {
	epoch, collect := e.begin(e.all, "")
	sizes := make([]int64, len(e.shards))
	errs := make([]error, len(e.shards))
	e.fan(e.all, func(i int, sh *shard) { sizes[i], errs[i] = sh.minimize(ctx) })
	e.finish(e.all, epoch, CommitMinimize, "", collect)
	var n int64
	for _, s := range sizes {
		n += s
	}
	for _, err := range errs {
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// --- secondary indexes --------------------------------------------------

// BuildIndex creates a hash index on the named attribute of the
// relation, on every shard's partition (each shard indexes exactly the
// rows it owns). Subsequent updates whose selection pattern constrains
// that attribute to a constant may use the index instead of a full
// scan. Any number of indexes may coexist per relation — building a
// second one on a different attribute never replaces the first — and
// building an index that already exists is a no-op (the index is
// already complete; an advisor-built index is adopted as manual so
// DropIndex semantics stay predictable). Each shard records as its
// history watermark the newest epoch allocated anywhere, read under the
// shard's write lock — no earlier than any epoch the shard has applied —
// so a historical scan never mistakes an index built after an epoch for
// one that covers it.
func (e *Engine) BuildIndex(rel, attr string) error {
	for _, sh := range e.shards {
		sh.mu.Lock()
		err := sh.buildIndex(rel, attr, EpochSeq(e.epoch.Load()))
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// DropIndex removes the index on the named attribute from every shard
// that has it. Because the advisor builds per shard, an auto-built index
// may exist on a strict subset of shards; the drop succeeds if any shard
// held it and returns ErrUnknownIndex (the HTTP layer maps it to 404)
// only when none did. The relation must exist either way.
func (e *Engine) DropIndex(rel, attr string) error {
	var firstErr error
	dropped := false
	for _, sh := range e.shards {
		sh.mu.Lock()
		err := sh.dropIndex(rel, attr)
		sh.mu.Unlock()
		switch {
		case err == nil:
			dropped = true
		case firstErr == nil:
			firstErr = err
		}
	}
	if dropped {
		return nil
	}
	return firstErr
}

// IndexStats reports every index of the engine — relations in schema
// order, attributes in column order — merging the per-shard statistics
// by (relation, attribute): keys, entries and dead counts sum over
// shards (shards partition the rows, so per-shard posting lists are
// disjoint; distinct values may repeat across shards and Keys counts
// per-shard lists). An index is reported Auto when every shard holding
// it was advisor-built.
func (e *Engine) IndexStats() []IndexInfo {
	type key struct{ rel, attr string }
	merged := make(map[key]*IndexInfo)
	for _, sh := range e.shards {
		for _, info := range sh.indexStats() {
			m := merged[key{info.Rel, info.Attr}]
			if m == nil {
				cp := info
				merged[key{info.Rel, info.Attr}] = &cp
				continue
			}
			m.Auto = m.Auto && info.Auto
			m.Keys += info.Keys
			m.Entries += info.Entries
			m.Dead += info.Dead
			m.Compactions += info.Compactions
		}
	}
	var out []IndexInfo
	for _, rel := range e.schema.Names() {
		for _, a := range e.schema.Relation(rel).Attrs {
			if m := merged[key{rel, a.Name}]; m != nil {
				out = append(out, *m)
			}
		}
	}
	return out
}

// PlannerStats sums the shards' scan-planner counters.
func (e *Engine) PlannerStats() PlannerStats {
	var ps PlannerStats
	for _, sh := range e.shards {
		s := sh.idx.stats()
		ps.FullScans += s.FullScans
		ps.IndexScans += s.IndexScans
		ps.IntersectScans += s.IntersectScans
		ps.PointLookups += s.PointLookups
		ps.AutoBuilds += s.AutoBuilds
		ps.Compactions += s.Compactions
		ps.RowsScanned += s.RowsScanned
		ps.RowsMatched += s.RowsMatched
	}
	return ps
}

// ShardStats summarizes routing decisions and the row distribution.
type ShardStats struct {
	Shards     int
	Routed     uint64 // transactions that locked a single shard
	Rendezvous uint64 // pinned transactions spanning several shards
	FanOut     uint64 // transactions evaluated against every shard of several
	// RowsPerShard lists stored-row counts in shard order.
	RowsPerShard []int
}

// Stats reports routing counters and per-shard row counts at the
// committed horizon, in shard order (deterministic for a quiescent
// engine).
func (e *Engine) Stats() ShardStats {
	st := ShardStats{
		Shards:       len(e.shards),
		Routed:       e.routedTxns.Load(),
		Rendezvous:   e.rendezvousTxns.Load(),
		FanOut:       e.fanoutTxns.Load(),
		RowsPerShard: make([]int, len(e.shards)),
	}
	h := e.Horizon()
	for i, sh := range e.shards {
		st.RowsPerShard[i] = sh.numRowsAt(h)
	}
	return st
}

// ShardStatsOf reports the Stats of the engine serving r, behind a view
// or a persistent wrapper alike.
func ShardStatsOf(r Reader) ShardStats { return r.view().e.Stats() }
