package engine

import (
	"context"
	"sync"
	"sync/atomic"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
)

// Multi-version concurrency control over the epoch<<32|counter sequence
// numbers.
//
// Row storage is append-only at two granularities. Tables never remove
// rows (tombstones persist — that is the paper's Section 3.1 semantics
// already), and with MVCC each row's annotation history is itself
// append-only: a row holds an atomic pointer to an immutable chain of
// versions, each valid over the sequence interval [born of this
// version, born of the next). Writers — still serialized per engine by
// the write lock — publish a new head per touched row per epoch;
// readers pin a horizon sequence on entry and resolve every row against
// it, so Annotation, NF, EachRow, Rows, Specialize* and BoolRestrict*
// run lock-free against a concurrent ApplyAll.
//
// Visibility is published by a single atomic horizon: epoch k's
// mutations become visible exactly when the horizon reaches
// k<<32|seqCounterMask, and the atomic store/load pair carries the
// happens-before edge that makes every version written under epoch ≤ k
// safe to read without locks. Versions born in an epoch beyond the
// reader's horizon are skipped by walking the chain; a row whose
// creation sequence is beyond the horizon is invisible entirely.
//
// The same machinery provides time travel: At(seq) returns a read-only
// View pinned to any committed horizon, and EpochSeq converts a
// transaction epoch to its horizon sequence.

// seqCounterMask is the low (creation-counter) half of a sequence
// number; epoch k is fully visible at horizon k<<32|seqCounterMask.
const seqCounterMask = 1<<32 - 1

// latestMark pins a scan or chunk to the current head versions — the
// writer's own view, which may include its uncommitted epoch.
const latestMark = ^uint64(0)

// EpochSeq returns the horizon sequence at which transaction epoch k is
// fully visible: pass it to DB.At to read the database as of epoch k
// (epoch 0 is the initial database before any transaction).
func EpochSeq(epoch uint64) uint64 { return epoch<<32 | seqCounterMask }

// SeqEpoch returns the transaction epoch of a sequence number (the high
// half); it inverts EpochSeq.
func SeqEpoch(seq uint64) uint64 { return seq >> 32 }

// clampSeq normalizes a requested read horizon: never beyond the
// committed horizon, and never mid-epoch — mutation versions of epoch k
// are born at k<<32, so a cut inside epoch k would expose a
// half-applied transaction. Mid-epoch requests snap down to the last
// fully committed epoch (epoch 0 only ever creates rows, so a partial
// epoch-0 cut is already consistent and passes through).
func clampSeq(seq, horizon uint64) uint64 {
	if seq > horizon {
		seq = horizon
	}
	if seq&seqCounterMask != seqCounterMask && seq>>32 > 0 {
		seq = EpochSeq(seq>>32 - 1)
	}
	return seq
}

// version is one immutable-once-committed state of a row's provenance:
// one 64-byte record holding the chain link, the birth sequence, the
// normal form by value and the liveness bit. born is the sequence
// number from which this version is current: the row's own creation
// sequence for the first version, epoch<<32 for in-place epoch
// mutations (a reader at horizon s sees the newest version with
// born ≤ s). The chain via prev is ordered by strictly decreasing born.
//
// nf is the Theorem 5.3 normal form in ModeNormalForm. ModeNaive keeps
// it in shape NFBase for good and uses the base slot for its raw
// expression (expr/setExpr), so support, materialization, size and
// evaluation read one representation in both modes.
//
// A version is mutable only while its epoch is open — it is then
// invisible to every reader (all horizons precede the open epoch) and
// the writer is single-threaded per shard, so in-place updates within
// an epoch are race-free and cost nothing over the pre-MVCC engine.
type version struct {
	prev *version
	born uint64
	nf   core.NF
	live bool // set-semantics membership, maintained per update
}

// expr returns the annotation of a version in shape NFBase: every
// version of the naive mode, and every committed one of either.
func (v *version) expr() *core.Expr { return v.nf.Base() }

// setExpr makes x the version's whole annotation.
func (v *version) setExpr(x *core.Expr) { v.nf = *core.NewNF(x) }

// inSupport reports whether the version is in the relation per Section
// 3.1: its annotation is not syntactically 0.
func (v *version) inSupport() bool { return !v.nf.IsZero() }

// annotation materializes the version's provenance expression.
// Committed normal forms are frozen (shape NFBase), so this is a pure
// read and safe to call concurrently.
func (v *version) annotation() *core.Expr { return v.nf.ToExpr() }

// latest returns the row's newest version (the writer's view).
func (r *row) latest() *version { return r.head.Load() }

// at resolves the row at horizon s: the newest version born at or
// before s, or nil when the row did not exist yet.
func (r *row) at(s uint64) *version {
	for v := r.head.Load(); v != nil; v = v.prev {
		if v.born <= s {
			return v
		}
	}
	return nil
}

// rowList is an append-only row slice readable without locks. The
// writer (serialized by the engine write lock) stores the element
// before publishing the new length; readers load the length first and
// clamp against the array they observe, so a torn grow is never
// exposed. Capacity grows by the usual doubling, copying into a fresh
// array — published atomically — so readers never see an array mutated
// underneath an index they already validated.
type rowList struct {
	arr atomic.Pointer[[]*row]
	n   atomic.Int64
}

// len reports the published length.
func (l *rowList) len() int { return int(l.n.Load()) }

// append adds a row at the end. Writer-only (under the engine lock).
func (l *rowList) append(r *row) {
	n := int(l.n.Load())
	arr := l.arr.Load()
	if arr == nil || n == len(*arr) {
		capacity := 16
		if arr != nil && len(*arr) > 0 {
			capacity = 2 * len(*arr)
		}
		grown := make([]*row, capacity)
		if arr != nil {
			copy(grown, *arr)
		}
		arr = &grown
		l.arr.Store(arr)
	}
	(*arr)[n] = r
	l.n.Store(int64(n + 1))
}

// snapshot returns the published prefix as a read-only slice.
func (l *rowList) snapshot() []*row {
	n := int(l.n.Load())
	arr := l.arr.Load()
	if arr == nil {
		return nil
	}
	if n > len(*arr) {
		// The length was published against a newer array than the one we
		// loaded; the prefix we can prove complete is the loaded array.
		n = len(*arr)
	}
	return (*arr)[:n:n]
}

// epochTracker turns out-of-order epoch completions into a monotone
// horizon. Shard workers of a sharded ApplyAll commit epochs as they
// finish, not in dispatch order; the horizon only advances to epoch k
// once every epoch ≤ k has committed, so a pinned reader never observes
// epoch k+1 without k (which would break the prefix-replay equivalence
// the differential tests check). Every allocated epoch must be
// committed exactly once — including transactions skipped after a
// failure — or the horizon stalls.
type epochTracker struct {
	mu      sync.Mutex
	done    map[uint64]struct{}
	low     uint64 // epochs 1..low have all committed
	horizon atomic.Uint64
	note    horizonNote

	// emit, when set, is called under mu for every epoch the horizon
	// newly covers, in increasing epoch order and after the horizon
	// store — the in-order commit-event edge of the sharded engine,
	// whose workers otherwise finish out of dispatch order. It must not
	// block (see CommitHook).
	emit func(epoch uint64)
}

func (t *epochTracker) init() {
	t.done = make(map[uint64]struct{})
	t.horizon.Store(seqCounterMask) // epoch 0 (initial rows) is visible
}

func (t *epochTracker) commit(epoch uint64) {
	t.mu.Lock()
	if epoch != t.low+1 {
		t.done[epoch] = struct{}{}
		t.mu.Unlock()
		return
	}
	from := t.low
	t.low++
	for {
		if _, ok := t.done[t.low+1]; !ok {
			break
		}
		delete(t.done, t.low+1)
		t.low++
	}
	t.horizon.Store(EpochSeq(t.low))
	if t.emit != nil {
		for k := from + 1; k <= t.low; k++ {
			t.emit(k)
		}
	}
	t.mu.Unlock()
	t.note.wake()
}

// horizonNote publishes horizon advances to blocked waiters. The write
// paths are single-threaded per engine (or funneled through the epoch
// tracker), so wake is called once per committed epoch — cheap next to
// the commit itself — while readers that never wait never touch it.
// The bell channel is closed on every advance and lazily re-armed, so a
// waiter loops: check the horizon, grab the bell, check again, sleep.
type horizonNote struct {
	mu sync.Mutex
	ch chan struct{}
}

// wake releases every current waiter. Called after the horizon store,
// so a woken waiter re-reading the horizon observes the new value.
func (n *horizonNote) wake() {
	n.mu.Lock()
	if n.ch != nil {
		close(n.ch)
		n.ch = nil
	}
	n.mu.Unlock()
}

// bell returns a channel closed at the next horizon advance.
func (n *horizonNote) bell() <-chan struct{} {
	n.mu.Lock()
	if n.ch == nil {
		n.ch = make(chan struct{})
	}
	ch := n.ch
	n.mu.Unlock()
	return ch
}

// waitHorizon blocks until horizon() >= seq or ctx is done. The
// check-subscribe-recheck order closes the race with a concurrent wake.
func (n *horizonNote) waitHorizon(ctx context.Context, horizon func() uint64, seq uint64) error {
	for {
		if horizon() >= seq {
			return nil
		}
		bell := n.bell()
		if horizon() >= seq {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-bell:
		}
	}
}

// MVCCStats reports the version-storage state of an engine.
type MVCCStats struct {
	// HorizonEpoch is the newest fully visible transaction epoch.
	HorizonEpoch uint64 `json:"horizonEpoch"`
	// HorizonSeq is the committed read horizon (EpochSeq(HorizonEpoch)).
	HorizonSeq uint64 `json:"horizonSeq"`
	// Epochs counts allocated write epochs (transactions, restores and
	// minimization passes), including any still uncommitted.
	Epochs uint64 `json:"epochs"`
	// Versions counts row versions ever created, initial rows included.
	Versions uint64 `json:"versions"`
}

// Horizon returns the newest committed read horizon; At(Horizon())
// pins the current state.
func (e *Engine) Horizon() uint64 { return e.visibleSeq.Load() }

// WaitHorizon blocks until the committed horizon reaches seq or ctx is
// done. This is the horizon-publication hook replication followers (and
// fenced reads) build on: a follower replaying a leader's log can park
// readers until the epoch they demand has been replayed, without
// polling. Sequences that are already visible return immediately.
func (e *Engine) WaitHorizon(ctx context.Context, seq uint64) error {
	return e.hzNote.waitHorizon(ctx, e.Horizon, seq)
}

// At returns a read-only view of the database at the given horizon
// sequence (see EpochSeq), clamped to the committed horizon and snapped
// down to an epoch boundary. The view is immutable and lock-free: it
// stays byte-identical no matter how many transactions commit after it
// was taken.
func (e *Engine) At(seq uint64) View {
	return &engineView{e: e, s: clampSeq(seq, e.Horizon())}
}

// MVCCStats reports the engine's version-storage counters.
func (e *Engine) MVCCStats() MVCCStats {
	h := e.Horizon()
	return MVCCStats{
		HorizonEpoch: SeqEpoch(h),
		HorizonSeq:   h,
		Epochs:       e.epoch.Load(),
		Versions:     e.versions.Load(),
	}
}

// Horizon returns the newest committed read horizon across all shards:
// the largest sequence s such that every epoch ≤ SeqEpoch(s) has
// committed on every shard it touched.
func (se *ShardedEngine) Horizon() uint64 { return se.tracker.horizon.Load() }

// WaitHorizon blocks until the cross-shard committed horizon reaches
// seq or ctx is done (see Engine.WaitHorizon).
func (se *ShardedEngine) WaitHorizon(ctx context.Context, seq uint64) error {
	return se.tracker.note.waitHorizon(ctx, se.Horizon, seq)
}

// At returns a read-only view of the sharded database at the given
// horizon sequence (see Engine.At).
func (se *ShardedEngine) At(seq uint64) View {
	return &shardedView{se: se, s: clampSeq(seq, se.Horizon())}
}

// MVCCStats reports version-storage counters summed over shards.
func (se *ShardedEngine) MVCCStats() MVCCStats {
	h := se.Horizon()
	st := MVCCStats{HorizonEpoch: SeqEpoch(h), HorizonSeq: h, Epochs: se.epoch.Load()}
	for _, sh := range se.shards {
		st.Versions += sh.versions.Load()
	}
	return st
}

// engineView is a single-engine database pinned at one horizon. All
// methods are lock-free reads against the version chains.
type engineView struct {
	e *Engine
	s uint64
}

func (v *engineView) Mode() Mode          { return v.e.mode }
func (v *engineView) Schema() *db.Schema  { return v.e.schema }
func (v *engineView) Relations() []string { return v.e.schema.Names() }

// AsOf returns the horizon sequence the view is pinned to.
func (v *engineView) AsOf() uint64 { return v.s }

func (v *engineView) Annotation(rel string, t db.Tuple) *core.Expr {
	return v.e.annotationAt(rel, t, v.s)
}

func (v *engineView) NF(rel string, t db.Tuple) *core.NF {
	return v.e.nfAt(rel, t, v.s)
}

func (v *engineView) EachRow(rel string, f func(t db.Tuple, ann *core.Expr)) {
	v.e.eachRowAt(rel, v.s, f)
}

func (v *engineView) Rows(f func(rel string, t db.Tuple, ann *core.Expr)) {
	v.e.rowsAt(v.s, f)
}

func (v *engineView) Select(rel string, sel db.Pattern) ([]db.Tuple, error) {
	return v.e.selectAt(rel, sel, v.s)
}

func (v *engineView) NumRows() int     { return v.e.numRowsAt(v.s) }
func (v *engineView) SupportSize() int { return v.e.supportSizeAt(v.s) }
func (v *engineView) ProvSize() int64  { return v.e.provSizeAt(v.s) }
func (v *engineView) ProvDAGSize() int64 {
	return v.e.provDAGSizeAt(make(map[*core.Expr]struct{}), v.s)
}

// shardedView is a sharded database pinned at one horizon.
type shardedView struct {
	se *ShardedEngine
	s  uint64
}

func (v *shardedView) Mode() Mode          { return v.se.mode }
func (v *shardedView) Schema() *db.Schema  { return v.se.schema }
func (v *shardedView) Relations() []string { return v.se.schema.Names() }

// AsOf returns the horizon sequence the view is pinned to.
func (v *shardedView) AsOf() uint64 { return v.s }

func (v *shardedView) Annotation(rel string, t db.Tuple) *core.Expr {
	return v.se.shardFor(t).annotationAt(rel, t, v.s)
}

func (v *shardedView) NF(rel string, t db.Tuple) *core.NF {
	return v.se.shardFor(t).nfAt(rel, t, v.s)
}

func (v *shardedView) EachRow(rel string, f func(t db.Tuple, ann *core.Expr)) {
	v.se.eachRowAt(rel, v.s, f)
}

func (v *shardedView) Rows(f func(rel string, t db.Tuple, ann *core.Expr)) {
	v.se.rowsAt(v.s, f)
}

func (v *shardedView) Select(rel string, sel db.Pattern) ([]db.Tuple, error) {
	return v.se.selectAt(rel, sel, v.s)
}

func (v *shardedView) NumRows() int     { return v.se.numRowsAt(v.s) }
func (v *shardedView) SupportSize() int { return v.se.supportSizeAt(v.s) }
func (v *shardedView) ProvSize() int64  { return v.se.provSizeAt(v.s) }
func (v *shardedView) ProvDAGSize() int64 {
	return v.se.provDAGSizeAt(v.s)
}

var (
	_ View = (*engineView)(nil)
	_ View = (*shardedView)(nil)
)

// --- horizon-pinned reads of the single engine --------------------------

func (e *Engine) annotationAt(rel string, t db.Tuple, s uint64) *core.Expr {
	tbl := e.tables[rel]
	if tbl == nil {
		return nil
	}
	// Fingerprint probe: the steady-state point lookup allocates nothing
	// (enforced by TestAllocFreeReads), and no Key() string is built.
	r := tbl.get(t.Fingerprint(), t)
	if r == nil {
		return nil
	}
	v := r.at(s)
	if v == nil {
		return nil
	}
	return v.annotation()
}

func (e *Engine) nfAt(rel string, t db.Tuple, s uint64) *core.NF {
	if e.mode != ModeNormalForm {
		return nil
	}
	tbl := e.tables[rel]
	if tbl == nil {
		return nil
	}
	r := tbl.get(t.Fingerprint(), t)
	if r == nil {
		return nil
	}
	v := r.at(s)
	if v == nil {
		return nil
	}
	return &v.nf
}

func (e *Engine) eachRowAt(rel string, s uint64, f func(t db.Tuple, ann *core.Expr)) {
	tbl := e.tables[rel]
	if tbl == nil {
		return
	}
	for _, r := range tbl.list.snapshot() {
		if r.seq > s {
			// A plain engine's writes are serialized under one lock, so
			// list order is sequence order and the visible rows form a
			// prefix. (Shard partitions are read through mergedRowsAt,
			// which sorts, never through this early exit.)
			break
		}
		v := r.at(s)
		if v == nil {
			continue
		}
		f(r.tuple, v.annotation())
	}
}

func (e *Engine) rowsAt(s uint64, f func(rel string, t db.Tuple, ann *core.Expr)) {
	for _, rel := range e.schema.Names() {
		name := rel
		e.eachRowAt(name, s, func(t db.Tuple, ann *core.Expr) { f(name, t, ann) })
	}
}

func (e *Engine) numRowsAt(s uint64) int {
	n := 0
	for _, name := range e.schema.Names() {
		tbl := e.tables[name]
		// Visibility counting walks the sequence column; no row pointer
		// is touched.
		left := tbl.list.len()
		for _, seqs := range tbl.cols.seqs.chunks() {
			seqs = seqs[:min(len(seqs), left)]
			left -= len(seqs)
			for _, q := range seqs {
				if q <= s {
					n++
				}
			}
		}
	}
	return n
}

func (e *Engine) supportSizeAt(s uint64) int {
	n := 0
	for _, name := range e.schema.Names() {
		for _, r := range e.tables[name].list.snapshot() {
			if v := r.at(s); v != nil && v.inSupport() {
				n++
			}
		}
	}
	return n
}

func (e *Engine) provSizeAt(s uint64) int64 {
	var n int64
	for _, name := range e.schema.Names() {
		for _, r := range e.tables[name].list.snapshot() {
			if v := r.at(s); v != nil {
				n += v.nf.Size()
			}
		}
	}
	return n
}

// provDAGSizeAt counts distinct nodes into a shared seen set, so a
// sharded engine can union the per-shard counts without double-counting
// nodes shared across shards.
func (e *Engine) provDAGSizeAt(seen map[*core.Expr]struct{}, s uint64) int64 {
	var n int64
	for _, name := range e.schema.Names() {
		for _, r := range e.tables[name].list.snapshot() {
			v := r.at(s)
			if v == nil {
				continue
			}
			n += v.annotation().DAGSizeInto(seen)
		}
	}
	return n
}
