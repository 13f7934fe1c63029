package subscribe

// White-box tests of the dispatcher's fold: it is driven directly
// (Manager.applyEvent on a recorded event), so what is counted — Go
// allocations, kernel memo misses, time — is the fold and nothing
// else. The TPC-C history and subscription mix defined here are shared
// with the black-box suites.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/tpcc"
)

// TPCCHistory is a seeded TPC-C instance (10 districts, scaled toward
// the paper's cardinalities by scale) and n transactions of its mix.
func TPCCHistory(t testing.TB, scale float64, n int) (*db.Database, []db.Transaction) {
	t.Helper()
	g := tpcc.NewGenerator(tpcc.Scaled(scale))
	initial, err := g.InitialDatabase()
	if err != nil {
		t.Fatal(err)
	}
	return initial, g.Transactions(n)
}

// TPCCMix is the wire benchmark's subscription mix over a TPC-C
// history: 10 DISTRICT and 10 CUSTOMER watches by district, 6 STOCK
// watches by item, 3 deletion and 3 abort what-ifs.
func TPCCMix(initial *db.Database, txns []db.Transaction) []Spec {
	var specs []Spec
	for d := 1; d <= 10; d++ {
		specs = append(specs,
			Spec{ID: fmt.Sprintf("district%d", d), Kind: KindWatch, Rel: tpcc.District,
				Match: []any{float64(d), nil, nil, nil, nil, nil}},
			Spec{ID: fmt.Sprintf("customer%d", d), Kind: KindWatch, Rel: tpcc.Customer,
				Match: []any{nil, float64(d), nil, nil, nil, nil, nil, nil, nil, nil, nil, nil}})
	}
	rows := initial.NumTuples()
	for i := 0; i < 6; i++ {
		specs = append(specs, Spec{ID: fmt.Sprintf("stock%d", i), Kind: KindWatch, Rel: tpcc.Stock,
			Match: []any{float64(1 + i*7), nil, nil, nil, nil, nil, nil}})
	}
	for i := 0; i < 3; i++ {
		specs = append(specs,
			Spec{ID: fmt.Sprintf("deletion%d", i), Kind: KindDeletion,
				Tuples: []string{fmt.Sprintf("t%d", (i*977+13)%rows), fmt.Sprintf("t%d", (i*31337+7)%rows)}},
			Spec{ID: fmt.Sprintf("abort%d", i), Kind: KindAbort,
				Labels: []string{txns[(i*(len(txns)-1))/2].Label}})
	}
	return specs
}

// folder drives the fold by hand: an engine that has applied a TPC-C
// history, a manager holding the mix on one connection, and the
// manager's commit hook replaced by one that only records the events.
type folder struct {
	d      engine.DB
	g      *tpcc.Generator
	m      *Manager
	c      *Conn
	events []engine.CommitEvent
}

func newFolder(t testing.TB, history int) *folder {
	t.Helper()
	f := &folder{g: tpcc.NewGenerator(tpcc.Scaled(0.01))}
	initial, err := f.g.InitialDatabase()
	if err != nil {
		t.Fatal(err)
	}
	txns := f.g.Transactions(history)
	f.d = engine.Open(engine.ModeNormalForm, initial, engine.WithAutoIndex(4))
	if err := f.d.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	f.m = NewManager(f.d)
	f.subscribe(t, initial, txns)
	f.d.SetCommitHook(f.record)
	return f
}

// record is the recording hook; ev.Rows is the engine's buffer, so the
// recording keeps a copy.
func (f *folder) record(ev engine.CommitEvent) {
	ev.Rows = slices.Clone(ev.Rows)
	f.events = append(f.events, ev)
}

// subscribe attaches a fresh connection holding the mix.
func (f *folder) subscribe(t testing.TB, initial *db.Database, txns []db.Transaction) {
	t.Helper()
	f.c = f.m.Attach(64)
	for _, sp := range TPCCMix(initial, txns) {
		if _, err := f.m.Subscribe(f.c, sp); err != nil {
			t.Fatal(err)
		}
	}
}

// commit applies the generator's next n transactions; their events
// queue up in f.events.
func (f *folder) commit(t testing.TB, n int) {
	for ; n > 0; n-- {
		txn := f.g.NextTransaction()
		if err := f.d.ApplyTransaction(&txn); err != nil {
			t.Fatal(err)
		}
	}
}

// fold folds the oldest recorded event and reads the frames it queued,
// which hands their buffers back to the free list.
func (f *folder) fold() {
	f.m.applyEvent(f.events[0])
	f.events = f.events[1:]
	for {
		if _, err := f.c.Next(Polled); err != nil {
			return
		}
	}
}

// Polled is a context that is already done: Next with it returns what
// is queued (or a pending resync) and never blocks.
var Polled = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// BenchmarkSubscriptionRespecTPCC measures folding one TPC-C commit into
// the wire benchmark's subscription mix on one drained connection,
// after histories of 2 000, 5 000 and 20 000 transactions. Only the
// fold is timed and counted — ns/op, B/op and allocs/op exclude the
// engine's apply. nodes/commit is the valuation kernels' memo misses
// and frameB/commit the encoded frame bytes: the first is flat in the
// history, the second grows with it, because a watch frame carries the
// row's whole annotation.
func BenchmarkSubscriptionRespecTPCC(b *testing.B) {
	for _, history := range []int{2000, 5000, 20000} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			f := newFolder(b, history)
			defer f.m.Close()
			before := f.m.StatsSnapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(f.events) == 0 {
					// Stopping the timer reads the heap statistics, which
					// costs more than a fold: do it once per batch.
					b.StopTimer()
					f.commit(b, min(b.N-i, 500))
					b.StartTimer()
				}
				f.fold()
			}
			b.StopTimer()
			after := f.m.StatsSnapshot()
			b.ReportMetric(float64(after.RespecNodes-before.RespecNodes)/float64(b.N), "nodes/commit")
			b.ReportMetric(float64(after.FrameBytes-before.FrameBytes)/float64(b.N), "frameB/commit")
		})
	}
}

// TestFoldAllocsIndependentOfHistory: folding a TPC-C commit into the
// 32-subscription mix allocates the same handful of objects — two
// pinned views, now and then a grown scratch buffer or a memo page —
// after 500 transactions as after 5 000: nothing per member row, per
// expression node or per byte of annotation.
func TestFoldAllocsIndependentOfHistory(t *testing.T) {
	measure := func(history int) float64 {
		f := newFolder(t, history)
		defer f.m.Close()
		for i := 0; i < 50; i++ { // grow the scratch buffers and fill the frame list
			f.commit(t, 1)
			f.fold()
		}
		var mallocs uint64
		const commits = 200
		var ms runtime.MemStats
		for i := 0; i < commits; i++ {
			f.commit(t, 1)
			runtime.ReadMemStats(&ms)
			start := ms.Mallocs
			f.fold()
			runtime.ReadMemStats(&ms)
			mallocs += ms.Mallocs - start
		}
		if st := f.m.StatsSnapshot(); st.FrameDrops != 0 || st.Deltas == 0 {
			t.Fatalf("history %d: the measured folds dropped frames or produced none: %+v", history, st)
		}
		return float64(mallocs) / commits
	}
	short, long := measure(500), measure(5000)
	t.Logf("allocations per folded commit: %.1f after 500 transactions, %.1f after 5 000", short, long)
	if short > 12 || long > 12 || long-short > 3 {
		t.Errorf("folding a commit allocates %.1f objects after 500 transactions and %.1f after 5 000: something allocates per row, node or state", short, long)
	}
}

// TestHookAllocsNothing: with subscriptions registered the commit hook
// queues an event's row refs in a buffer the dispatcher handed back, so
// once warm it allocates nothing per commit. The measured event is one
// every subscription has folded in already (epoch 0), so the dispatcher
// folds nothing and what is counted is the hook's.
func TestHookAllocsNothing(t *testing.T) {
	f := newFolder(t, 10)
	defer f.m.Close()
	f.commit(t, 4)
	ev := f.events[len(f.events)-1]
	if ev.Epoch = 0; len(ev.Rows) == 0 {
		t.Fatal("the event names no rows")
	}
	// The dispatcher waits on the lock while the hook fills the queue, so
	// the warm-up leaves as many buffers as a measured run can hold.
	f.m.mu.Lock()
	for range queueDepth - 1 {
		f.m.hook(ev)
	}
	f.m.mu.Unlock()
	f.m.Sync()
	if allocs := testing.AllocsPerRun(100, func() { f.m.hook(ev) }); allocs != 0 {
		t.Fatalf("the commit hook allocates %v times per commit, want 0", allocs)
	}
	if st := f.m.StatsSnapshot(); st.EventDrops != 0 {
		t.Fatalf("the hook dropped %d events", st.EventDrops)
	}
}

// snapshotSink is where TestSnapshotAllocsIndependentOfRows streams
// snapshots: it counts the bytes, keeps the largest write, and notes a
// write made while the manager's lock was held.
type snapshotSink struct {
	m            *Manager
	bytes, large int
	locked       bool
}

func (w *snapshotSink) Write(p []byte) (int, error) {
	w.bytes, w.large = w.bytes+len(p), max(w.large, len(p))
	if w.m.mu.TryLock() {
		w.m.mu.Unlock()
	} else {
		w.locked = true
	}
	return len(p), nil
}

// TestSnapshotAllocsIndependentOfRows: an ack or resync streamed to a
// writer allocates per snapshot — a pinned view, a closure per
// relation — and not per row or per byte: its scratch and its window
// are recycled. Over the wire benchmark's TPC-C state after 2 400 and
// after 12 000 transactions, a deletion what-if's ack and a resync of
// the whole 32-subscription mix, each measured after one warm-up, must
// allocate less than a tenth of the bytes they write, write at most
// frameKeep at a time, and never with the manager's lock held.
func TestSnapshotAllocsIndependentOfRows(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("applies 12 000 TPC-C transactions")
	}
	g := tpcc.NewGenerator(tpcc.Scaled(0.02))
	initial, err := g.InitialDatabase()
	if err != nil {
		t.Fatal(err)
	}
	txns := g.Transactions(12000)
	d := engine.Open(engine.ModeNormalForm, initial, engine.WithAutoIndex(4))
	m := NewManager(d)
	defer m.Close()
	applied := 0
	for _, history := range []int{2400, 12000} {
		if err := d.ApplyAll(context.Background(), txns[applied:history]); err != nil {
			t.Fatal(err)
		}
		// The dispatcher folds the batch's events after ApplyAll returns:
		// what it allocates doing so must not land in a measurement.
		m.Sync()
		applied = history
		c := m.Attach(64)
		for _, sp := range TPCCMix(initial, txns[:2400]) {
			if _, err := m.Subscribe(c, sp); err != nil {
				t.Fatal(err)
			}
		}
		// measure streams one snapshot (or a round of them) to a fresh
		// sink and reports what it allocated.
		measure := func(stream func(w *snapshotSink)) (*snapshotSink, uint64) {
			w := &snapshotSink{m: m}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			stream(w)
			runtime.ReadMemStats(&after)
			return w, after.TotalAlloc - before.TotalAlloc
		}
		ack := func(id string) func(w *snapshotSink) {
			return func(w *snapshotSink) {
				if err := m.SubscribeTo(c, Spec{ID: id, Kind: KindDeletion, Tuples: []string{"t13", "t7"}}, w); err != nil {
					t.Fatal(err)
				}
			}
		}
		resync := func(w *snapshotSink) {
			m.rebuild()
			for c.NextTo(Polled, w) == nil {
			}
		}
		// The collector stays off between each warm-up and its measurement.
		gc := debug.SetGCPercent(-1)
		for _, snap := range []struct {
			name         string
			warm, stream func(w *snapshotSink)
		}{{"a deletion what-if's ack", ack("warm"), ack("measured")}, {"a resync of the mix", resync, resync}} {
			measure(snap.warm)
			w, alloc := measure(snap.stream)
			t.Logf("%d transactions: %s allocates %d bytes for a %d-byte write, at most %d bytes at a time",
				history, snap.name, alloc, w.bytes, w.large)
			if alloc*10 >= uint64(w.bytes) || w.large > frameKeep || w.locked {
				t.Errorf("%d transactions: %s allocates %d bytes for %d written, writes up to %d bytes at a time (window %d), lock held %v",
					history, snap.name, alloc, w.bytes, w.large, frameKeep, w.locked)
			}
		}
		debug.SetGCPercent(gc)
		c.Close()
	}
}

// TestKernelNodesPerCommitFlat is commit-proportionality as an exact
// count: the expression nodes the what-ifs' kernels compute per commit,
// over the 200 commits before 2 000, 5 000 and 20 000 transactions, by
// subscriptions registered just before them, differ by less than 1.5×.
// (Their acks walk the whole DAG once; that is counted apart.)
func TestKernelNodesPerCommitFlat(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("applies 20 000 TPC-C transactions; counts nodes, races nothing")
	}
	f := &folder{g: tpcc.NewGenerator(tpcc.Scaled(0.01))}
	initial, err := f.g.InitialDatabase()
	if err != nil {
		t.Fatal(err)
	}
	f.d = engine.Open(engine.ModeNormalForm, initial, engine.WithAutoIndex(4))
	f.m = NewManager(f.d)
	defer f.m.Close()
	first := f.g.Transactions(2)
	if err := f.d.ApplyAll(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	f.d.SetCommitHook(f.record)
	applied := len(first)
	const window = 200
	var perCommit []float64
	for _, history := range []int{2000, 5000, 20000} {
		f.commit(t, history-window-applied)
		f.events = nil
		f.subscribe(t, initial, first)
		acks := f.m.StatsSnapshot().RespecNodes
		for applied = history - window; applied < history; applied++ {
			f.commit(t, 1)
			f.fold()
		}
		st := f.m.StatsSnapshot()
		perCommit = append(perCommit, float64(st.RespecNodes-acks)/window)
		t.Logf("history %d: %.1f kernel nodes per commit (the six acks walked %d)", history, perCommit[len(perCommit)-1], acks)
		f.c.Close()
		f.m.respec.Store(0)
	}
	lo, hi := perCommit[0], perCommit[0]
	for _, n := range perCommit {
		lo, hi = min(lo, n), max(hi, n)
	}
	if lo == 0 || hi/lo >= 1.5 {
		t.Errorf("kernel nodes per commit %v: not flat in the history length", perCommit)
	}
}

// TestClosedConnectionIsCollectable: Conn.Close and Unsubscribe compact
// the subscription list in place; the slots past the new length must
// not keep the removed subscriptions (and through them the connection
// and its queued frames) reachable.
func TestClosedConnectionIsCollectable(t *testing.T) {
	initial, txns := TPCCHistory(t, 0.002, 3)
	d := engine.Open(engine.ModeNormalForm, initial)
	m := NewManager(d)
	defer m.Close()
	keep := m.Attach(0)
	if _, err := m.Subscribe(keep, Spec{ID: "keep", Kind: KindWatch, Rel: tpcc.District}); err != nil {
		t.Fatal(err)
	}
	freed := make(chan string, 8)
	c := m.Attach(0)
	for _, sp := range TPCCMix(initial, txns)[:6] {
		if _, err := m.Subscribe(c, sp); err != nil {
			t.Fatal(err)
		}
	}
	m.mu.Lock()
	for _, s := range m.subs[1:] {
		id := s.spec.ID
		runtime.SetFinalizer(s, func(*sub) { freed <- id })
	}
	m.mu.Unlock()
	if !m.Unsubscribe(c, "district1") {
		t.Fatal("unsubscribe failed")
	}
	c.Close()
	c = nil
	for got := 0; got < 6; {
		runtime.GC()
		select {
		case <-freed:
			got++
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of 6 removed subscriptions were collected: the list's backing array still pins them", got)
		}
	}
	if st := m.StatsSnapshot(); st.Subscriptions != 1 || st.Connections != 1 {
		t.Fatalf("registrations after close: %+v", st)
	}
}

// TestResyncYieldsToQueuedFrames: a reader that found its queue empty
// may wait on the manager's lock while the dispatcher queues a delta
// and then flags the subscription stale. The resync it then renders is
// at a later epoch than that delta, so it must wait until the reader
// has taken every queued frame, or the client reads the epochs going
// back.
func TestResyncYieldsToQueuedFrames(t *testing.T) {
	f := newFolder(t, 10)
	defer f.m.Close()
	f.commit(t, 4)
	for _, ev := range f.events {
		f.m.applyEvent(ev)
	}
	if len(f.c.ch) == 0 {
		t.Fatal("four commits queued no delta")
	}
	f.m.rebuild() // every subscription is stale from here
	for len(f.c.ch) > 0 {
		if render := f.m.takeResync(f.c); render != nil {
			render(io.Discard)
			t.Fatalf("a resync was taken ahead of %d queued frames", len(f.c.ch))
		}
		putFrame(<-f.c.ch)
	}
	render := f.m.takeResync(f.c)
	if render == nil {
		t.Fatal("no resync once the queue was empty")
	}
	if err := render(io.Discard); err != nil {
		t.Fatal(err)
	}
}
