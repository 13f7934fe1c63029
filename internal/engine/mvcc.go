package engine

import (
	"context"
	"sync"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
)

// Multi-version concurrency control over write epochs.
//
// Row storage is append-only at two granularities. Tables never remove
// rows (tombstones persist — that is the paper's Section 3.1 semantics
// already), and with MVCC each row's annotation history is itself
// append-only: a row holds an atomic reference to the newest of its
// versions, entries of its table's version column chained by their prev
// references, each valid over the epoch interval [born of this version,
// born of the next). Writers — serialized by the write lock — append one
// version and publish a new head per touched row per epoch; readers pin
// the horizon, the newest committed epoch, on entry and resolve every row
// against it, so Annotation, NF, EachRow, Rows, Select, Specialize* and
// BoolRestrict* run lock-free against a concurrent ApplyAll.
//
// Visibility is published by a single atomic horizon: epoch k's
// mutations become visible exactly when the horizon reaches k, and the
// atomic store/load pair carries the happens-before edge that makes
// every version written under epoch ≤ k safe to read without locks.
// Versions born in an epoch beyond the reader's horizon are skipped by
// walking the chain; a row whose first version is beyond the horizon
// (born in the epoch that created the row) is invisible entirely, and
// At pins an older epoch for time travel.

// version is one state of a row's provenance, a 16-byte entry of its
// table's version column: the annotation, frozen (the Theorem 5.3 normal
// form's base, or the naive mode's raw expression), the epoch that wrote
// it and prev, the row's previous version. A version is named by its
// position in the column plus one, 0 naming none, as a row's head does.
// It is current from its epoch until the next one's; a row's first
// version is born in the epoch that created the row, and prev runs
// through decreasing epochs (a tuple restored twice in one epoch keeps
// both versions of it). A version is written once, frozen: the form an
// epoch writes lives in Engine.touched, where no reader looks, and
// finish appends it and then stores the row's head, before the horizon
// store that publishes the epoch. An epoch fits in 32 bits: an engine
// past 2³²−1 epochs — a log past 2³²−1 records — is out of range.
type version struct {
	base  *core.Expr
	prev  uint32
	epoch uint32
}

// at resolves r at epoch k: its newest version born at or before k, or
// nil for a row created after k or not yet committed. It alone decides
// whether a row is visible at a view.
func (t *table) at(r *row, k uint64) *version {
	for ref := r.head.Load(); ref != 0; {
		v := t.vers.ref(int(ref - 1))
		if uint64(v.epoch) <= k {
			return v
		}
		ref = v.prev
	}
	return nil
}

// newest returns the annotation of r's newest version, or 0 for a row
// that has none yet (writer-only).
func (t *table) newest(r *row) *core.Expr {
	if ref := r.head.Load(); ref != 0 {
		return t.vers.ref(int(ref - 1)).base
	}
	return core.Zero()
}

// push appends x as r's newest version, born in epoch, and then publishes
// it as r's head (writer-only). A table holds fewer than 2³² versions.
func (t *table) push(r *row, x *core.Expr, epoch uint32) {
	n := t.nvers.Load()
	*t.vers.slotAt(int(n)) = version{base: x, prev: r.head.Load(), epoch: epoch}
	t.nvers.Store(n + 1)
	r.head.Store(n + 1)
}

// Note publishes the advances of a value — the engine's horizon, a
// log's end — to blocked waiters. Wake is called once per advance —
// cheap next to the commit itself — while readers that never wait never
// touch it. The bell channel is closed on every advance and lazily
// re-armed, so a waiter loops: check the value, grab the bell, check
// again, sleep.
type Note struct {
	mu sync.Mutex
	ch chan struct{}
}

// Wake releases every current waiter. Called after the value is stored,
// so a woken waiter re-reading it observes the new value.
func (n *Note) Wake() {
	n.mu.Lock()
	if n.ch != nil {
		close(n.ch)
		n.ch = nil
	}
	n.mu.Unlock()
}

// Bell returns a channel closed at the next Wake.
func (n *Note) Bell() <-chan struct{} {
	n.mu.Lock()
	if n.ch == nil {
		n.ch = make(chan struct{})
	}
	ch := n.ch
	n.mu.Unlock()
	return ch
}

// MVCCStats reports the version-storage state of an engine.
type MVCCStats struct {
	// HorizonEpoch is the newest fully visible transaction epoch.
	HorizonEpoch uint64 `json:"horizonEpoch"`
	// Epochs is the newest allocated write epoch, one beyond
	// HorizonEpoch while a write is in flight.
	Epochs uint64 `json:"epochs"`
	// RestoreEpoch is the epoch a snapshot or checkpoint was restored at
	// (0 for rows): a view pinned below it reads no rows.
	RestoreEpoch uint64 `json:"restoreEpoch"`
	// Versions counts row versions ever created, initial rows included.
	Versions uint64 `json:"versions"`
}

// Horizon returns the committed read horizon: the newest epoch k such
// that every epoch ≤ k has committed. At(Horizon()) pins the present.
func (e *Engine) Horizon() uint64 { return e.horizon.Load() }

// WaitHorizon blocks until the committed horizon reaches epoch k or ctx
// is done: a follower replaying a leader's log parks fenced reads until
// the epoch they demand has been replayed, without polling. The
// check-subscribe-recheck order closes the race with a concurrent wake.
func (e *Engine) WaitHorizon(ctx context.Context, k uint64) error {
	for e.Horizon() < k {
		bell := e.note.Bell()
		if e.Horizon() >= k {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-bell:
		}
	}
	return nil
}

// MVCCStats reports the engine's version-storage counters.
func (e *Engine) MVCCStats() MVCCStats {
	st := MVCCStats{HorizonEpoch: e.Horizon(), Epochs: e.epoch.Load(), RestoreEpoch: e.restored}
	for _, tbl := range e.tables {
		st.Versions += uint64(tbl.nvers.Load())
	}
	return st
}

// At returns a read-only view of the database as of epoch k — after
// its first k write epochs, epoch 0 being the initial database —
// clamped to the committed horizon. The view is immutable and
// lock-free: it stays byte-identical no matter how many transactions
// commit after it was taken.
func (e *Engine) At(k uint64) View { return &view{e: e, k: min(k, e.Horizon())} }

// view is the database pinned at one horizon: the one implementation of
// the Reader surface. The engine's own Reader methods are its view at
// the committed horizon; At hands out a pointer, which is cheaper to put
// behind the View interface than the two words by value. All methods are
// lock-free reads against the version chains.
type view struct {
	e *Engine
	k uint64
}

var _ View = (*view)(nil)

// view is what seals Reader (see there): every Reader resolves to one.
func (v view) view() view    { return v }
func (e *Engine) view() view { return view{e: e, k: e.Horizon()} }

func (v view) Mode() Mode          { return v.e.mode }
func (v view) Schema() *db.Schema  { return v.e.schema }
func (v view) Relations() []string { return v.e.schema.Names() }

// AsOf returns the epoch the view is pinned to.
func (v view) AsOf() uint64 { return v.k }

// rows returns the relation's table and how many of its rows are
// visible at the pinned horizon (0 for no table). Positions are in the
// order of the epochs that created them (epochs are allocated under the
// write lock), and a row's first version is born in its creation epoch,
// so the visible rows are a prefix: the published length trimmed of the
// rows with no version at the horizon. Callers walk them with
// colStore.eachRows and only resolve versions.
func (v view) rows(rel string) (*table, int) {
	tbl := v.e.tables[rel]
	if tbl == nil {
		return nil, 0
	}
	n := tbl.cols.len()
	for n > 0 && tbl.at(tbl.cols.row(n-1), v.k) == nil {
		n--
	}
	return tbl, n
}

// find returns the version of the tuple's row visible at the pinned
// horizon, or nil. A fingerprint probe: the steady-state point lookup
// allocates nothing (enforced by TestAllocFreeReads), and no Key() string
// is built.
func (v view) find(rel string, t db.Tuple) *version {
	tbl := v.e.tables[rel]
	if tbl == nil {
		return nil
	}
	r := tbl.rows.get(t.Fingerprint(), t)
	if r == nil {
		return nil
	}
	return tbl.at(r, v.k)
}

func (v view) Annotation(rel string, t db.Tuple) *core.Expr {
	if ver := v.find(rel, t); ver != nil {
		return ver.base
	}
	return nil
}

func (v view) NF(rel string, t db.Tuple) core.NF {
	if ver := v.find(rel, t); ver != nil && v.e.mode == ModeNormalForm {
		return *core.NewNF(ver.base)
	}
	return core.NF{}
}

// tupleBufs holds the buffers a pass builds tuples into from the word
// columns and lends each callback in turn, so a warm pass allocates
// nothing. Max keeps the buffers of 64 passes run at once; a kept
// buffer is one row's values.
var tupleBufs = db.FreeList[*db.Tuple]{Max: 64, New: func() *db.Tuple { return new(db.Tuple) }}

// eachRef calls f with every row of the relation visible at the pinned
// horizon, in insertion order: its ref, its tuple (lent) and annotation.
func (v view) eachRef(rel string, f func(ref RowRef, t db.Tuple, ann *core.Expr)) {
	tbl, n := v.rows(rel)
	if n == 0 {
		return
	}
	buf := tupleBufs.Get()
	defer tupleBufs.Put(buf)
	tbl.cols.eachRows(0, n, func(rows []row) {
		for i := range rows {
			r := &rows[i]
			if ver := tbl.at(r, v.k); ver != nil {
				*buf = tbl.tuple(r, *buf)
				f(RowRef{Rel: rel, Pos: r.pos}, *buf, ver.base)
			}
		}
	})
}

func (v view) EachRow(rel string, f func(t db.Tuple, ann *core.Expr)) {
	v.eachRef(rel, func(_ RowRef, t db.Tuple, ann *core.Expr) { f(t, ann) })
}

func (v view) Rows(f func(rel string, t db.Tuple, ann *core.Expr)) {
	for _, rel := range v.e.schema.Names() {
		v.eachRef(rel, func(_ RowRef, t db.Tuple, ann *core.Expr) { f(rel, t, ann) })
	}
}

// EachRowRef is r's EachRow that also names each row by its ref.
func EachRowRef(r Reader, rel string, f func(ref RowRef, t db.Tuple, ann *core.Expr)) {
	r.view().eachRef(rel, f)
}

// RowTuple builds the tuple of the row ref names into dst[:0], growing
// dst only past its capacity, and returns it; ok is false, and the tuple
// empty, when r's engine stores no row there. A row's values are the
// same at every horizon, so any reader of the engine that stored the
// row will do.
func RowTuple(r Reader, ref RowRef, dst db.Tuple) (t db.Tuple, ok bool) {
	tbl := r.view().e.tables[ref.Rel]
	if tbl == nil || int(ref.Pos) >= tbl.cols.len() {
		return dst[:0], false
	}
	return tbl.cols.tuple(int(ref.Pos), dst), true
}

// Select collects what each streams, each tuple copied.
func (v view) Select(rel string, sel db.Pattern) ([]db.Tuple, error) {
	var out []db.Tuple
	if err := v.each(rel, sel, func(t db.Tuple) { out = append(out, t.Clone()) }); err != nil {
		return nil, err
	}
	return out, nil
}

// each streams to f, in insertion order, the tuples of the rows visible
// at the pinned horizon that are matchable there and match the pattern,
// checked first as the selection of a deletion (the update that only
// selects), each lent for the call. It takes no lock and reads no index,
// so f may call back into the engine, writes included.
func (v view) each(rel string, sel db.Pattern, f func(db.Tuple)) error {
	u := db.Delete(rel, sel)
	if err := checkUpdate(v.e.schema, &u); err != nil {
		return err
	}
	tbl, n := v.rows(rel)
	buf := tupleBufs.Get()
	defer tupleBufs.Put(buf)
	tbl.cols.eachRows(0, n, func(rows []row) {
		for i := range rows {
			if r := &rows[i]; tbl.cols.matches(int(r.pos), &u) {
				if ver := tbl.at(r, v.k); ver != nil && v.e.matchableNF(core.NewNF(ver.base)) {
					*buf = tbl.tuple(r, *buf)
					f(*buf)
				}
			}
		}
	})
	return nil
}

// NumRows sums the visible prefixes: counting reads only the rows
// trimmed off the end.
func (v view) NumRows() int {
	n := 0
	for _, name := range v.e.schema.Names() {
		_, k := v.rows(name)
		n += k
	}
	return n
}

func (v view) SupportSize() int {
	n := 0
	v.eachVersion(func(ver *version) {
		if !ver.base.IsZero() {
			n++
		}
	})
	return n
}

func (v view) ProvSize() int64 {
	var n int64
	v.eachVersion(func(ver *version) { n += ver.base.Size() })
	return n
}

// ProvDAGSize counts the distinct nodes of the visible annotations.
func (v view) ProvDAGSize() int64 {
	var seen core.NodeSet
	v.eachVersion(func(ver *version) { ver.base.DAGSizeInto(&seen) })
	return seen.Len()
}

// eachVersion calls f with the version of every row visible at the
// pinned horizon, relations in schema order, rows in insertion order.
func (v view) eachVersion(f func(ver *version)) {
	for _, name := range v.e.schema.Names() {
		tbl, n := v.rows(name)
		tbl.cols.eachRows(0, n, func(rows []row) {
			for i := range rows {
				if ver := tbl.at(&rows[i], v.k); ver != nil {
					f(ver)
				}
			}
		})
	}
}

// --- the engine's Reader surface: the view at the committed horizon -----

// Annotation returns the provenance expression of the tuple at the
// committed horizon, or nil if the tuple was never stored. In
// normal-form mode the expression is materialized from the NF
// representation. Lock-free: concurrent transactions never block it.
func (e *Engine) Annotation(rel string, t db.Tuple) *core.Expr { return e.view().Annotation(rel, t) }

// NF returns the normal-form value of the tuple in ModeNormalForm at
// the committed horizon, or the zero NF (whose Base is nil). A committed
// form is frozen: shape NFBase over its annotation.
func (e *Engine) NF(rel string, t db.Tuple) core.NF { return e.view().NF(rel, t) }

// EachRow calls f for every row of the relation visible at the
// committed horizon (including tombstones outside the support) with its
// tuple and annotation, in deterministic insertion order (the same
// order Specialize and SpecializeParallel stream rows) — never map
// order, so snapshot bytes and streamed results are stable across runs.
// The tuple is lent for the call: a caller that keeps it keeps a Clone.
// In normal-form mode annotations are materialized per call. The pass is
// lock-free and the horizon is pinned on entry, so the visited rows form one consistent
// epoch snapshot even while transactions commit concurrently; f may
// freely call back into the engine.
func (e *Engine) EachRow(rel string, f func(t db.Tuple, ann *core.Expr)) { e.view().EachRow(rel, f) }

// Rows calls f for every row visible at the committed horizon —
// relations in schema order, rows in insertion order — with the horizon
// pinned once for the whole pass, so the visited rows form one
// consistent cut even while transactions are applied concurrently. The
// tuple is lent, as EachRow's. Snapshot saving uses this.
func (e *Engine) Rows(f func(rel string, t db.Tuple, ann *core.Expr)) { e.view().Rows(f) }

// Select implements Reader: the tuples the selection pattern matches
// at the committed horizon, in insertion order. Lock-free.
func (e *Engine) Select(rel string, sel db.Pattern) ([]db.Tuple, error) {
	return e.view().Select(rel, sel)
}

// SelectEach streams the tuples matching the selection at the committed
// horizon to f, in insertion order: Select without materializing the
// result slice, and the steady-state pass allocates nothing (enforced by
// TestAllocFreeReads). Each tuple is lent for the call, as EachRow's. The
// horizon is pinned on entry and no lock is held, so f may call back into
// the engine, writes included.
func (e *Engine) SelectEach(rel string, sel db.Pattern, f func(db.Tuple)) error {
	return e.view().each(rel, sel, f)
}

// NumRows reports the total number of rows visible at the committed
// horizon, including tombstones and tuples outside the support (the
// paper's "database size" under provenance tracking, which exceeds the
// plain database by ~2% on TPC-C).
func (e *Engine) NumRows() int { return e.view().NumRows() }

// SupportSize reports the number of visible rows whose annotation is
// not syntactically zero.
func (e *Engine) SupportSize() int { return e.view().SupportSize() }

// ProvSize reports the total provenance size (tree size summed over all
// visible rows) — the size measure of the paper's Section 6.
func (e *Engine) ProvSize() int64 { return e.view().ProvSize() }

// ProvDAGSize reports the number of distinct expression nodes backing
// all visible annotations: shared subterms — shared within a row,
// across rows, and across relations — are counted once. With
// hash-consed expressions this is the number of nodes actually held in
// memory for this engine's provenance, the companion measure to
// ProvSize's per-occurrence tree count (the paper's Fig. 7b/8b report
// the latter; the stats endpoint reports both).
func (e *Engine) ProvDAGSize() int64 { return e.view().ProvDAGSize() }
