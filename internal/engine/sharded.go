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

// ShardedEngine partitions every relation's rows across N shards by
// tuple fingerprint (db.ShardOfTuple over db.Tuple.Fingerprint — no
// Key() string is built on the routing path). Each shard is a full
// Engine — its own table maps behind its own write lock — so shards
// are independent lock domains and transactions touching disjoint
// shards apply concurrently.
//
// Updates route by constraint analysis (db.Update.RouteTuples): an update
// whose =-constant constraints pin the key attributes goes to exactly
// one shard, where the pinned selection degenerates to a map lookup
// instead of the paper's relation scan; all other updates — free
// variables, ≠ constraints, key-modifying +M — fan out to all shards in
// parallel. Theorem 5.3 locality makes the fan-out sound: each row's
// normal form depends only on that row's annotation and the query
// annotation, never on other rows, so disjoint partitions maintain it
// independently. The one cross-row construct, the Σ over a
// modification's sources, is merged by the coordinator in global row
// order before the targets absorb it, reproducing the single engine's
// Σ summand order exactly.
//
// Reads are lock-free: shard workers commit epochs out of dispatch
// order, so the engine-level epochTracker only advances the read
// horizon to epoch k once every epoch ≤ k has committed, and readers
// resolve the per-shard MVCC version chains against that pinned
// horizon (a coordinated shard's own visibleSeq is never advanced —
// the tracker owns visibility).
//
// Equivalence contract (checked by the differential tests): for the
// same initial database and transaction log, a ShardedEngine holds
// row-for-row identical annotations to a single Engine — the same
// interned expression pointers — streams rows in the same order, and
// produces byte-identical snapshots, for any shard count, at every
// committed epoch. The mechanism is a global row sequence number: rows
// of transaction k carry seq = k<<32 | i (i counting creations within
// the transaction, in update order), so merging the per-shard lists by
// seq reconstructs the insertion order a single engine would have
// used, independent of how transactions were scheduled across shards.
type ShardedEngine struct {
	mode   Mode
	schema *db.Schema
	shards []*Engine
	all    []int // 0..len(shards)-1, the fan-out shard set

	// epoch numbers transactions (and snapshot restores) in dispatch
	// order; it is the high half of every row sequence number.
	epoch atomic.Uint64

	// tracker converts out-of-order epoch commits into the monotone
	// read horizon (see mvcc.go).
	tracker epochTracker

	// hook is the commit-event subscriber. Executing workers stash each
	// epoch's event in pending (keyed by epoch) before committing the
	// epoch to the tracker; the tracker's emit callback then delivers
	// events in epoch order as the horizon advances. An epoch with no
	// stashed event (a transaction skipped after a batch failure, or one
	// applied while no hook was installed) emits as an empty CommitTxn so
	// subscribers still see every epoch. rowBufs recycles the events' Rows
	// buffers: lent to the hook for one call, wiped, and reused.
	hook    atomic.Pointer[CommitHook]
	pendMu  sync.Mutex
	pending map[uint64]*CommitEvent
	rowBufs [][]RowRef

	routedTxns     atomic.Uint64 // pinned to a single shard
	rendezvousTxns atomic.Uint64 // pinned, spanning several shards
	fanoutTxns     atomic.Uint64 // evaluated against every shard
}

// NewSharded builds a hash-sharded engine from an initial database.
// The shard count comes from WithShards (minimum 1). Initial tuples are
// annotated in the single engine's order — relations in schema order,
// tuples in sorted-key order — so annotation names are independent of
// the shard count.
func NewSharded(mode Mode, initial *db.Database, opts ...Option) *ShardedEngine {
	cfg := newConfig(opts)
	schema := initial.Schema()
	se := &ShardedEngine{mode: mode, schema: schema}
	se.tracker.init()
	se.tracker.emit = se.emitEpoch
	for i := 0; i < cfg.shards; i++ {
		se.shards = append(se.shards, newShell(mode, schema, cfg))
	}
	se.all = make([]int, cfg.shards)
	for i := range se.all {
		se.all[i] = i
	}
	var seq uint64
	for _, name := range schema.Names() {
		for _, t := range initial.Instance(name).Tuples() {
			a := se.shards[0].freshAnnot(name, t)
			r := newRow(t, seq, core.Var(a), true)
			seq++
			sh := se.shardFor(t)
			sh.versions.Add(1)
			sh.tables[name].add(r)
		}
	}
	return se
}

// Mode reports the provenance representation in use.
func (se *ShardedEngine) Mode() Mode { return se.mode }

// Schema returns the database schema.
func (se *ShardedEngine) Schema() *db.Schema { return se.schema }

// Relations returns the relation names in schema order.
func (se *ShardedEngine) Relations() []string { return se.schema.Names() }

// NumShards reports the number of shards.
func (se *ShardedEngine) NumShards() int { return len(se.shards) }

func (se *ShardedEngine) shardFor(t db.Tuple) *Engine {
	return se.shards[db.ShardOfTuple(t, len(se.shards))]
}

// SetCommitHook installs (or, with nil, removes) the commit-event
// subscriber; see CommitHook for the contract.
func (se *ShardedEngine) SetCommitHook(h CommitHook) {
	if h == nil {
		se.hook.Store(nil)
		return
	}
	se.hook.Store(&h)
}

// stashEvent parks a completed epoch's event until the tracker's
// horizon covers the epoch (emitEpoch delivers it then, in order).
func (se *ShardedEngine) stashEvent(epoch uint64, ev CommitEvent) {
	se.pendMu.Lock()
	if se.pending == nil {
		se.pending = make(map[uint64]*CommitEvent)
	}
	se.pending[epoch] = &ev
	se.pendMu.Unlock()
}

// eventRows returns an empty Rows buffer for an epoch's event, recycled
// when emitEpoch has delivered an earlier one.
func (se *ShardedEngine) eventRows() []RowRef {
	se.pendMu.Lock()
	defer se.pendMu.Unlock()
	n := len(se.rowBufs)
	if n == 0 {
		return nil
	}
	buf := se.rowBufs[n-1]
	se.rowBufs = se.rowBufs[:n-1]
	return buf
}

// emitEpoch delivers one epoch's commit event. Called by the tracker
// under its mutex, strictly in epoch order, after the horizon store —
// so a subscriber reading At(ev.Seq) observes the committed epoch.
func (se *ShardedEngine) emitEpoch(epoch uint64) {
	se.pendMu.Lock()
	ev, ok := se.pending[epoch]
	delete(se.pending, epoch)
	se.pendMu.Unlock()
	hp := se.hook.Load()
	if hp == nil {
		return
	}
	if !ok {
		// No stashed event: the epoch executed before the hook was
		// installed (install races an in-flight apply). Announce it as a
		// reset — the subscriber rebuilds from the horizon, which covers
		// the epoch — rather than as an empty transaction that would
		// silently skip its rows. (Epochs skipped after a batch failure
		// stash an explicit empty event and never take this path.)
		ev = &CommitEvent{Epoch: epoch, Kind: CommitReset}
	}
	ev.Seq = EpochSeq(epoch)
	(*hp)(*ev)
	// Rows was lent for the call only; see CommitHook.
	if rows := recycleRows(ev.Rows); cap(rows) > 0 {
		se.pendMu.Lock()
		se.rowBufs = append(se.rowBufs, rows)
		se.pendMu.Unlock()
	}
}

// lockShards/unlockShards take the write locks of a sorted shard set in
// ascending order (the global lock order; keeps concurrent multi-shard
// transactions deadlock-free).
func (se *ShardedEngine) lockShards(shards []int) {
	for _, si := range shards {
		se.shards[si].mu.Lock()
	}
}

func (se *ShardedEngine) unlockShards(shards []int) {
	for _, si := range shards {
		se.shards[si].mu.Unlock()
	}
}

// analyze classifies a transaction: the sorted set of shards it can
// touch, and whether constraint analysis pinned every update (pinned
// = routable; otherwise the set is all shards and updates fan out).
func (se *ShardedEngine) analyze(t *db.Transaction) (shards []int, pinned bool) {
	seen := make(map[int]struct{})
	for i := range t.Updates {
		tuples, ok := t.Updates[i].RouteTuples()
		if !ok {
			return se.all, false
		}
		for _, tu := range tuples {
			seen[db.ShardOfTuple(tu, len(se.shards))] = struct{}{}
		}
	}
	if len(seen) == 0 {
		// An empty transaction still needs a shard to record Begin/End.
		return []int{0}, true
	}
	shards = make([]int, 0, len(seen))
	for si := range seen {
		shards = append(shards, si)
	}
	sort.Ints(shards)
	return shards, true
}

func (se *ShardedEngine) countTxn(shards []int, pinned bool) {
	switch {
	case !pinned:
		se.fanoutTxns.Add(1)
	case len(shards) == 1:
		se.routedTxns.Add(1)
	default:
		se.rendezvousTxns.Add(1)
	}
}

// execLocked applies one transaction to the given shard set; the caller
// holds every involved shard's write lock. Begin/End bracket the
// transaction on every involved shard, so normal-form freezing stays
// per-shard consistent, and a shared sequence closure numbers the rows
// created by the transaction in update order. The caller commits the
// epoch to the tracker after releasing the locks.
func (se *ShardedEngine) execLocked(t *db.Transaction, shards []int, epoch uint64) error {
	var local uint64
	next := func() uint64 {
		s := epoch<<32 | local
		local++
		return s
	}
	collect := se.hook.Load() != nil
	for _, si := range shards {
		sh := se.shards[si]
		sh.nextSeq = next
		sh.curEpoch = epoch
		sh.Begin(t.Label)
		// Shards have no hook of their own; the coordinator forces event
		// collection (after Begin, which reset evRows) and harvests the
		// per-shard refs below, while the locks are still held.
		sh.collectEv = collect
	}
	var err error
	for i := range t.Updates {
		if aerr := se.applyUpdateLocked(t.Updates[i], shards); aerr != nil {
			err = fmt.Errorf("transaction %s, query %d: %w", t.Label, i, aerr)
			break
		}
	}
	var rows []RowRef
	if collect {
		rows = se.eventRows()
	}
	for _, si := range shards {
		sh := se.shards[si]
		sh.End()
		sh.nextSeq = nil
		if collect {
			rows = append(rows, sh.evRows...)
			sh.evRows = sh.evRows[:0]
			sh.collectEv = false
		}
	}
	if collect {
		se.stashEvent(epoch, CommitEvent{Epoch: epoch, Kind: CommitTxn, Label: t.Label, Rows: rows})
	}
	return err
}

// applyUpdateLocked routes one update: pinned updates touch exactly the
// rows named by their keys (point lookups); unpinned ones fan out over
// the shard set in parallel.
func (se *ShardedEngine) applyUpdateLocked(u db.Update, shards []int) error {
	if se.schema.Relation(u.Rel) == nil {
		return fmt.Errorf("engine: %w %s", ErrUnknownRelation, u.Rel)
	}
	tuples, pinned := u.RouteTuples()
	switch u.Kind {
	case db.OpInsert:
		sh := se.shardFor(tuples[0])
		sh.applyInsert(sh.tables[u.Rel], u)
		return nil
	case db.OpDelete:
		if pinned {
			sh := se.shardFor(tuples[0])
			if r := sh.lookupPinned(sh.tables[u.Rel], u, tuples[0]); r != nil {
				sh.deleteRow(sh.tables[u.Rel], r)
			}
			return nil
		}
		se.fanDelete(u, shards)
		return nil
	case db.OpModify:
		if pinned {
			sh := se.shardFor(tuples[0])
			if r := sh.lookupPinned(sh.tables[u.Rel], u, tuples[0]); r != nil {
				sh.modifyRows(u, []*row{r}, se.shards)
			}
			return nil
		}
		se.fanModify(u, shards)
		return nil
	default:
		return fmt.Errorf("engine: unknown update kind %v", u.Kind)
	}
}

// fanDelete applies an unpinned deletion on every shard of the set in
// parallel; deletions touch rows in place, so shards need no
// coordination beyond the locks already held.
func (se *ShardedEngine) fanDelete(u db.Update, shards []int) {
	if len(shards) == 1 {
		sh := se.shards[shards[0]]
		sh.applyDelete(sh.tables[u.Rel], u)
		return
	}
	var wg sync.WaitGroup
	for _, si := range shards {
		wg.Add(1)
		go func(sh *Engine) {
			defer wg.Done()
			sh.applyDelete(sh.tables[u.Rel], u)
		}(se.shards[si])
	}
	wg.Wait()
}

// fanModify evaluates an unpinned modification: every shard scans its
// partition in parallel, then the coordinator merges the matched
// sources by global row order — the single engine's scan order, so Σ
// summand order and the self-map shape come out identical — and runs
// the modification across shards on the first shard's scratch.
func (se *ShardedEngine) fanModify(u db.Update, shards []int) {
	per := make([][]*row, len(shards))
	if len(shards) == 1 {
		sh := se.shards[shards[0]]
		per[0] = sh.scan(sh.tables[u.Rel], u)
	} else {
		var wg sync.WaitGroup
		for i, si := range shards {
			wg.Add(1)
			go func(i int, sh *Engine) {
				defer wg.Done()
				per[i] = sh.scan(sh.tables[u.Rel], u)
			}(i, se.shards[si])
		}
		wg.Wait()
	}
	first := se.shards[shards[0]]
	sources := first.getScanBuf()
	for i, si := range shards {
		sources = append(sources, per[i]...)
		// Scan buffers recycle to the shard that lent them (its write
		// lock is still held by this coordinator).
		se.shards[si].putScanBuf(per[i])
	}
	// Row sequence numbers are globally unique, so this order is total
	// and deterministic.
	sort.Slice(sources, func(i, j int) bool { return sources[i].seq < sources[j].seq })
	first.modifyRows(u, sources, se.shards)
	first.putScanBuf(sources)
}

// ApplyTransaction runs a whole transaction under the write locks of
// exactly the shards it can touch; transactions over disjoint shards
// proceed concurrently. The transaction's epoch commits to the tracker
// after the locks are released, advancing the read horizon once every
// earlier epoch has also committed.
func (se *ShardedEngine) ApplyTransaction(t *db.Transaction) error {
	shards, pinned := se.analyze(t)
	se.countTxn(shards, pinned)
	epoch := se.epoch.Add(1)
	se.lockShards(shards)
	err := se.execLocked(t, shards, epoch)
	se.unlockShards(shards)
	se.tracker.commit(epoch)
	return err
}

// shardTask is one transaction in flight through the ApplyAll worker
// pool.
type shardTask struct {
	txn    *db.Transaction
	idx    int // position in the batch (ApplyBatch progress tracking)
	epoch  uint64
	shards []int
	// pending counts the involved workers that have not yet reached the
	// task; the last one to arrive executes it (the per-transaction
	// epoch barrier), then closes done.
	pending atomic.Int32
	done    chan struct{}
}

// batchTracker tracks which batch positions applied successfully and
// reports the length of the contiguous applied prefix.
type batchTracker struct {
	mu   sync.Mutex
	done map[int]struct{}
	low  int // txns[0:low] all applied
}

func newBatchTracker() *batchTracker {
	return &batchTracker{done: make(map[int]struct{})}
}

func (t *batchTracker) complete(i int) {
	t.mu.Lock()
	if i != t.low {
		t.done[i] = struct{}{}
		t.mu.Unlock()
		return
	}
	t.low++
	for {
		if _, ok := t.done[t.low]; !ok {
			break
		}
		delete(t.done, t.low)
		t.low++
	}
	t.mu.Unlock()
}

func (t *batchTracker) prefix() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.low
}

// ApplyAll pipelines a batch of transactions through one worker per
// shard. The dispatcher classifies each transaction in log order and
// enqueues it on every involved shard's queue: single-shard
// transactions execute on their shard's worker alone, so streaks
// bound for different shards apply in parallel; multi-shard and
// fan-out transactions rendezvous — the last involved worker to reach
// the task executes it holding all involved write locks, which
// preserves per-shard log order (every queue is FIFO and dispatch
// order is the log order).
//
// ctx is checked before each dispatch; on cancellation or error,
// transactions already dispatched still complete, and the first error
// in dispatch order is returned. Per-shard routing statistics merge
// deterministically (see Stats) because classification happens on the
// dispatcher, in log order. See ApplyBatch to learn how many
// transactions a cancelled or failed batch durably applied.
func (se *ShardedEngine) ApplyAll(ctx context.Context, txns []db.Transaction) error {
	_, err := se.ApplyBatch(ctx, txns)
	return err
}

// ApplyBatch is ApplyAll reporting progress: it returns the length of
// the contiguous batch prefix durably applied (and visible to
// readers). On a nil error applied == len(txns); after a cancellation
// or failure, txns[:applied] need not be replayed — WAL recovery and
// replication resume from txns[applied:]. Because shard workers
// complete out of log order, transactions after the failed one may
// also have applied (they are deliberately not counted: the prefix is
// the resumable part), and transactions enqueued but skipped after the
// first failure never execute.
func (se *ShardedEngine) ApplyBatch(ctx context.Context, txns []db.Transaction) (applied int, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(se.shards)
	if n == 1 {
		for i := range txns {
			if err := ctx.Err(); err != nil {
				return i, err
			}
			if err := se.ApplyTransaction(&txns[i]); err != nil {
				return i, err
			}
		}
		return len(txns), nil
	}

	var (
		errMu      sync.Mutex
		firstErr   error
		firstEpoch uint64
	)
	fail := func(epoch uint64, err error) {
		errMu.Lock()
		if firstErr == nil || epoch < firstEpoch {
			firstErr, firstEpoch = err, epoch
		}
		errMu.Unlock()
	}
	failed := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return firstErr != nil
	}
	bt := newBatchTracker()

	queues := make([]chan *shardTask, n)
	for i := range queues {
		queues[i] = make(chan *shardTask, 64)
	}
	var wg sync.WaitGroup
	for si := 0; si < n; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			for tk := range queues[si] {
				if len(tk.shards) == 1 {
					// Skipped tasks still commit their epoch: the horizon
					// must not stall behind an epoch that will never run.
					if failed() {
						if se.hook.Load() != nil {
							se.stashEvent(tk.epoch, CommitEvent{Epoch: tk.epoch, Kind: CommitTxn})
						}
						se.tracker.commit(tk.epoch)
						continue
					}
					sh := se.shards[si]
					sh.mu.Lock()
					err := se.execLocked(tk.txn, tk.shards, tk.epoch)
					sh.mu.Unlock()
					se.tracker.commit(tk.epoch)
					if err != nil {
						fail(tk.epoch, err)
					} else {
						bt.complete(tk.idx)
					}
					continue
				}
				if tk.pending.Add(-1) > 0 {
					// Other involved workers have not reached the barrier;
					// wait for the last of them to execute the transaction.
					<-tk.done
					continue
				}
				if !failed() {
					se.lockShards(tk.shards)
					err := se.execLocked(tk.txn, tk.shards, tk.epoch)
					se.unlockShards(tk.shards)
					if err != nil {
						fail(tk.epoch, err)
					} else {
						bt.complete(tk.idx)
					}
				} else if se.hook.Load() != nil {
					se.stashEvent(tk.epoch, CommitEvent{Epoch: tk.epoch, Kind: CommitTxn})
				}
				se.tracker.commit(tk.epoch)
				close(tk.done)
			}
		}(si)
	}

	for i := range txns {
		if ctx.Err() != nil || failed() {
			break
		}
		shards, pinned := se.analyze(&txns[i])
		se.countTxn(shards, pinned)
		tk := &shardTask{txn: &txns[i], idx: i, epoch: se.epoch.Add(1), shards: shards}
		if len(shards) > 1 {
			tk.pending.Store(int32(len(shards)))
			tk.done = make(chan struct{})
		}
		for _, si := range shards {
			queues[si] <- tk
		}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()

	applied = bt.prefix()
	errMu.Lock()
	err = firstErr
	errMu.Unlock()
	if err != nil {
		return applied, err
	}
	return applied, ctx.Err()
}

// RestoreRow stores a tuple with an explicit annotation on the shard
// owning it (see Engine.RestoreRow). Each restore is its own epoch,
// committed to the tracker like a transaction.
func (se *ShardedEngine) RestoreRow(rel string, t db.Tuple, ann *core.Expr) error {
	sh := se.shardFor(t)
	collect := se.hook.Load() != nil
	epoch := se.epoch.Add(1)
	sh.mu.Lock()
	sh.nextSeq = func() uint64 { return epoch << 32 }
	sh.curEpoch = epoch
	if collect {
		sh.evRows = sh.evRows[:0]
		sh.collectEv = true
	}
	err := sh.restoreRowLocked(rel, t, ann)
	var rows []RowRef
	if collect {
		rows = append(se.eventRows(), sh.evRows...)
		sh.evRows = sh.evRows[:0]
		sh.collectEv = false
	}
	sh.nextSeq = nil
	sh.mu.Unlock()
	if collect {
		se.stashEvent(epoch, CommitEvent{Epoch: epoch, Kind: CommitRestore, Rows: rows})
	}
	se.tracker.commit(epoch)
	return err
}

// BuildIndex creates the hash index on every shard's partition of the
// relation (each shard indexes exactly the rows it owns). All shards
// record the same history watermark — the newest epoch allocated
// anywhere, not the last epoch the individual shard saw — so a
// historical scan never mistakes an index built after an epoch for one
// that covers it.
func (se *ShardedEngine) BuildIndex(rel, attr string) error {
	since := EpochSeq(se.epoch.Load())
	for _, sh := range se.shards {
		sh.mu.Lock()
		err := sh.buildIndexLocked(rel, attr, false, since)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Select implements Reader: per-shard planner scans at the committed
// horizon, merged to global insertion order.
func (se *ShardedEngine) Select(rel string, sel db.Pattern) ([]db.Tuple, error) {
	return se.selectAt(rel, sel, se.Horizon())
}

func (se *ShardedEngine) selectAt(rel string, sel db.Pattern, s uint64) ([]db.Tuple, error) {
	var all []*row
	for _, sh := range se.shards {
		rows, err := sh.selectRowsAt(rel, sel, s)
		if err != nil {
			return nil, err
		}
		all = append(all, rows...)
	}
	// Shard-local scans come back in shard insertion order; sequence
	// numbers are globally unique and define the merged order.
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make([]db.Tuple, len(all))
	for i, r := range all {
		out[i] = r.tuple
	}
	return out, nil
}

// SelectEach streams the tuples matching the selection at the
// committed horizon to f in global insertion order. The sharded form
// materializes the merged result first — the cross-shard order
// requires the sequence sort — so the zero-allocation streaming gate
// applies to the single engine only.
func (se *ShardedEngine) SelectEach(rel string, sel db.Pattern, f func(db.Tuple)) error {
	tuples, err := se.Select(rel, sel)
	if err != nil {
		return err
	}
	for _, t := range tuples {
		f(t)
	}
	return nil
}

// DropIndex removes the index from every shard that has it. Because the
// advisor builds per shard, an auto-built index may exist on a strict
// subset of shards; the drop succeeds if any shard held it and returns
// ErrUnknownIndex only when none did.
func (se *ShardedEngine) DropIndex(rel, attr string) error {
	var firstErr error
	dropped := false
	for _, sh := range se.shards {
		err := sh.DropIndex(rel, attr)
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

// IndexStats merges the per-shard index statistics by (relation,
// attribute): keys, entries and dead counts sum over shards (shards
// partition the rows, so per-shard posting lists are disjoint; distinct
// values may repeat across shards and Keys counts per-shard lists). An
// index is reported Auto when every shard holding it was advisor-built.
func (se *ShardedEngine) IndexStats() []IndexInfo {
	merged := make(map[string]*IndexInfo)
	var order []string
	for _, sh := range se.shards {
		for _, info := range sh.IndexStats() {
			k := info.Rel + "\x00" + info.Attr
			m := merged[k]
			if m == nil {
				cp := info
				merged[k] = &cp
				order = append(order, k)
				continue
			}
			m.Auto = m.Auto && info.Auto
			m.Keys += info.Keys
			m.Entries += info.Entries
			m.Dead += info.Dead
			m.Compactions += info.Compactions
		}
	}
	out := make([]IndexInfo, 0, len(order))
	for _, k := range order {
		out = append(out, *merged[k])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rel != out[j].Rel {
			return out[i].Rel < out[j].Rel
		}
		return out[i].Attr < out[j].Attr
	})
	return out
}

// PlannerStats sums the per-shard planner counters.
func (se *ShardedEngine) PlannerStats() PlannerStats {
	var ps PlannerStats
	for _, sh := range se.shards {
		s := sh.PlannerStats()
		ps.FullScans += s.FullScans
		ps.IndexScans += s.IndexScans
		ps.IntersectScans += s.IntersectScans
		ps.AutoBuilds += s.AutoBuilds
		ps.Compactions += s.Compactions
		ps.RowsScanned += s.RowsScanned
		ps.RowsMatched += s.RowsMatched
	}
	return ps
}

// Annotation returns the provenance expression of the tuple at the
// committed horizon, from the shard owning it. Lock-free and
// allocation-free (fingerprint routing plus a fingerprint probe).
func (se *ShardedEngine) Annotation(rel string, t db.Tuple) *core.Expr {
	return se.shardFor(t).annotationAt(rel, t, se.Horizon())
}

// NF returns the normal-form value of the tuple in ModeNormalForm at
// the committed horizon, or nil.
func (se *ShardedEngine) NF(rel string, t db.Tuple) *core.NF {
	return se.shardFor(t).nfAt(rel, t, se.Horizon())
}

// mergedRowsAt returns every row of the relation visible at horizon s
// across all shards, ordered by global sequence number — exactly the
// insertion order of the equivalent single engine at that epoch.
// Lock-free: per-shard lists are snapshotted and visibility-filtered
// before the merge (a shard's list is not seq-sorted in general —
// epochs are allocated before shard locks are taken — so the merge
// sorts the union rather than assuming per-shard order).
func (se *ShardedEngine) mergedRowsAt(rel string, s uint64) []*row {
	var out []*row
	for _, sh := range se.shards {
		for _, r := range sh.tables[rel].list.snapshot() {
			if r.seq <= s {
				out = append(out, r)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

func (se *ShardedEngine) eachRowAt(rel string, s uint64, f func(t db.Tuple, ann *core.Expr)) {
	if se.schema.Relation(rel) == nil {
		return
	}
	for _, r := range se.mergedRowsAt(rel, s) {
		v := r.at(s)
		if v == nil {
			continue
		}
		f(r.tuple, v.annotation())
	}
}

func (se *ShardedEngine) rowsAt(s uint64, f func(rel string, t db.Tuple, ann *core.Expr)) {
	for _, rel := range se.schema.Names() {
		name := rel
		se.eachRowAt(name, s, func(t db.Tuple, ann *core.Expr) { f(name, t, ann) })
	}
}

// EachRow calls f for every row of the relation visible at the
// committed horizon, in the same deterministic order as the single
// engine (global insertion order, merged across shards). The horizon is
// pinned on entry; the pass is lock-free.
func (se *ShardedEngine) EachRow(rel string, f func(t db.Tuple, ann *core.Expr)) {
	se.eachRowAt(rel, se.Horizon(), f)
}

// Rows calls f for every row visible at the committed horizon —
// relations in schema order, rows in global insertion order — against
// one horizon pinned for the whole pass, so the visited rows form one
// consistent cut across shards even while transactions commit
// concurrently.
func (se *ShardedEngine) Rows(f func(rel string, t db.Tuple, ann *core.Expr)) {
	se.rowsAt(se.Horizon(), f)
}

// perShardInt64 evaluates f on every shard concurrently and returns the
// per-shard results in shard order — a deterministic merge regardless
// of completion order.
func (se *ShardedEngine) perShardInt64(f func(sh *Engine) int64) []int64 {
	out := make([]int64, len(se.shards))
	var wg sync.WaitGroup
	for i, sh := range se.shards {
		wg.Add(1)
		go func(i int, sh *Engine) {
			defer wg.Done()
			out[i] = f(sh)
		}(i, sh)
	}
	wg.Wait()
	return out
}

func (se *ShardedEngine) numRowsAt(s uint64) int {
	var n int64
	for _, c := range se.perShardInt64(func(sh *Engine) int64 { return int64(sh.numRowsAt(s)) }) {
		n += c
	}
	return int(n)
}

func (se *ShardedEngine) supportSizeAt(s uint64) int {
	var n int64
	for _, c := range se.perShardInt64(func(sh *Engine) int64 { return int64(sh.supportSizeAt(s)) }) {
		n += c
	}
	return int(n)
}

func (se *ShardedEngine) provSizeAt(s uint64) int64 {
	var n int64
	for _, c := range se.perShardInt64(func(sh *Engine) int64 { return sh.provSizeAt(s) }) {
		n += c
	}
	return n
}

// NumRows reports the total number of rows visible at the committed
// horizon across all shards.
func (se *ShardedEngine) NumRows() int { return se.numRowsAt(se.Horizon()) }

// SupportSize reports the number of visible rows whose annotation is
// not syntactically zero, shard-parallel.
func (se *ShardedEngine) SupportSize() int { return se.supportSizeAt(se.Horizon()) }

// ProvSize reports the total provenance tree size, shard-parallel.
func (se *ShardedEngine) ProvSize() int64 { return se.provSizeAt(se.Horizon()) }

// provDAGSizeAt counts distinct expression nodes at horizon s: shards
// count their partitions in parallel into private seen sets, whose
// union dedupes nodes shared across shards.
func (se *ShardedEngine) provDAGSizeAt(s uint64) int64 {
	sets := make([]map[*core.Expr]struct{}, len(se.shards))
	var wg sync.WaitGroup
	for i, sh := range se.shards {
		wg.Add(1)
		go func(i int, sh *Engine) {
			defer wg.Done()
			sets[i] = make(map[*core.Expr]struct{})
			sh.provDAGSizeAt(sets[i], s)
		}(i, sh)
	}
	wg.Wait()
	union := sets[0]
	for _, set := range sets[1:] {
		for x := range set {
			union[x] = struct{}{}
		}
	}
	return int64(len(union))
}

// ProvDAGSize reports the number of distinct expression nodes backing
// all visible annotations.
func (se *ShardedEngine) ProvDAGSize() int64 { return se.provDAGSizeAt(se.Horizon()) }

// MinimizeAll minimizes every shard's partition in parallel under all
// write locks; ctx is checked at shard boundaries (each shard checks
// between its relations). The pass is one write epoch across all
// shards, so pinned views taken before it keep reading the unminimized
// history. The per-shard sizes merge by summation — deterministic
// regardless of completion order.
func (se *ShardedEngine) MinimizeAll(ctx context.Context) (int64, error) {
	collect := se.hook.Load() != nil
	epoch := se.epoch.Add(1)
	se.lockShards(se.all)
	errs := make([]error, len(se.shards))
	sizes := make([]int64, len(se.shards))
	var wg sync.WaitGroup
	for i, sh := range se.shards {
		sh.curEpoch = epoch
		if collect {
			sh.evRows = sh.evRows[:0]
			sh.collectEv = true
		}
		wg.Add(1)
		go func(i int, sh *Engine) {
			defer wg.Done()
			sizes[i], errs[i] = sh.minimizeAllLocked(ctx)
		}(i, sh)
	}
	wg.Wait()
	if collect {
		rows := se.eventRows()
		for _, sh := range se.shards {
			rows = append(rows, sh.evRows...)
			sh.evRows = sh.evRows[:0]
			sh.collectEv = false
		}
		se.stashEvent(epoch, CommitEvent{Epoch: epoch, Kind: CommitMinimize, Rows: rows})
	}
	se.unlockShards(se.all)
	se.tracker.commit(epoch)
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

// ShardedStats summarizes routing decisions and the row distribution.
type ShardedStats struct {
	Shards     int
	Routed     uint64 // transactions pinned to a single shard
	Rendezvous uint64 // pinned transactions spanning several shards
	FanOut     uint64 // transactions evaluated against every shard
	// RowsPerShard lists stored-row counts in shard order.
	RowsPerShard []int
}

// Stats reports routing counters and per-shard row counts at the
// committed horizon, merged in shard order (deterministic for a
// quiescent engine).
func (se *ShardedEngine) Stats() ShardedStats {
	st := ShardedStats{
		Shards:     len(se.shards),
		Routed:     se.routedTxns.Load(),
		Rendezvous: se.rendezvousTxns.Load(),
		FanOut:     se.fanoutTxns.Load(),
	}
	h := se.Horizon()
	st.RowsPerShard = make([]int, len(se.shards))
	for i, sh := range se.shards {
		st.RowsPerShard[i] = sh.numRowsAt(h)
	}
	return st
}
