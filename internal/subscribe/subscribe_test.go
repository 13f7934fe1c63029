package subscribe_test

// Differential and behavioral tests for live subscriptions. The core
// property is a protocol one: a client that starts from the ack and
// composes every later frame — deltas, and the resync snapshots it is
// offered when a frame was dropped — holds, after every committed
// epoch, exactly the state a from-scratch Recompute builds against a
// view pinned at that epoch. The manager keeps no state to compare, so
// the wire is the only thing there is to test. Every frame read is also
// checked to be the bytes encoding/json writes for the Frame it decodes
// to. The behavioral tests cover commit-order delivery, slow and
// stalled subscribers (the write path must never block), concurrent
// subscribe/unsubscribe under -race, and delivery across an engine
// swap (engine.Handle.Swap).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/subscribe"
	"hyperprov/internal/upstruct"
	"hyperprov/internal/workload"
)

func testAnnot(rel string, t db.Tuple) core.Annot {
	return core.TupleAnnot("t_" + t.Key())
}

// testWorkload builds a small seeded update log with merge-heavy
// transactions so deltas exercise added, removed and changed rows.
func testWorkload(t testing.TB, seed int64) (*db.Database, []db.Transaction) {
	t.Helper()
	initial, txns, err := workload.Generate(workload.Config{
		Tuples: 80, Pool: 16, Group: 2, Updates: 30,
		QueriesPerTxn: 2, MergeRatio: 0.4, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return initial, txns
}

// poolTupleNames returns the annotation names of the first n initial
// tuples (the workload's affected pool, in insertion order).
func poolTupleNames(d engine.Reader, n int) []string {
	var names []string
	d.EachRow("R", func(tu db.Tuple, _ *core.Expr) {
		if len(names) < n {
			names = append(names, "t_"+tu.Key())
		}
	})
	return names
}

// testSpecs is the subscription mix the synthetic histories maintain:
// a deletion what-if over pool tuples, an abort what-if over the first
// transaction labels and one that only a later commit creates, a
// whole-relation watch and a hyperplane watch.
func testSpecs(d engine.Reader, txns []db.Transaction) []subscribe.Spec {
	return []subscribe.Spec{
		{ID: "del", Kind: subscribe.KindDeletion, Tuples: poolTupleNames(d, 6)},
		{ID: "abort", Kind: subscribe.KindAbort, Labels: []string{txns[0].Label, txns[1].Label, txns[len(txns)/2].Label}},
		{ID: "watch", Kind: subscribe.KindWatch, Rel: "R"},
		{ID: "watch-alpha", Kind: subscribe.KindWatch, Rel: "R",
			Match: []any{nil, nil, "alpha", nil, nil}},
	}
}

// mirror is the client side of the protocol: it holds what a reader of
// one connection's frames knows about each subscription.
type mirror struct {
	t      testing.TB
	schema *db.Schema
	state  map[string]map[string]string // subscription id → rel\x00key → annotation
	epoch  map[string]uint64
	frames map[string]int // frames seen, by type
}

func newMirror(t testing.TB, schema *db.Schema) *mirror {
	return &mirror{t: t, schema: schema, state: map[string]map[string]string{}, epoch: map[string]uint64{}, frames: map[string]int{}}
}

// checkWire asserts raw is what encoding/json writes for the frame it
// decodes to, and returns that frame.
func checkWire(t testing.TB, raw []byte) subscribe.Frame {
	t.Helper()
	var f subscribe.Frame
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("frame does not decode: %v\n%s", err, raw)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(f); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatalf("frame bytes differ from encoding/json:\n got %s\nwant %s", raw, buf.Bytes())
	}
	return f
}

// rowKey rebuilds a row's state key from its wire form: the tuple's
// JSON values typed by the relation schema.
func (mi *mirror) rowKey(r subscribe.Row) string {
	rel := mi.schema.Relation(r.Rel)
	if rel == nil || len(r.Tuple) != len(rel.Attrs) {
		mi.t.Fatalf("row %v does not fit the schema", r)
	}
	tu := make(db.Tuple, len(r.Tuple))
	for i, raw := range r.Tuple {
		switch v := raw.(type) {
		case string:
			tu[i] = db.S(v)
		case float64:
			if rel.Attrs[i].Kind == db.KindInt {
				tu[i] = db.I(int64(v))
			} else {
				tu[i] = db.F(v)
			}
		default:
			mi.t.Fatalf("row %v: unexpected JSON value %T", r, raw)
		}
	}
	return r.Rel + "\x00" + tu.Key()
}

// inWireOrder asserts a frame's row list comes relations in schema
// order, rows by key.
func (mi *mirror) inWireOrder(f subscribe.Frame, rows []subscribe.Row) {
	mi.t.Helper()
	prevRel, prevKey := -1, ""
	for _, r := range rows {
		k := mi.rowKey(r)
		rel := slices.Index(mi.schema.Names(), r.Rel)
		if rel < prevRel || rel == prevRel && k <= prevKey {
			mi.t.Fatalf("%s frame for %q lists %q after %q", f.Type, f.ID, k, prevKey)
		}
		prevRel, prevKey = rel, k
	}
}

// apply folds one frame into the mirror, failing on any frame a
// correct server cannot send: a delta for an unknown subscription or an
// epoch already covered, an added row already held, a removed or
// changed row not held, a removed row whose annotation is not the one
// held, rows out of wire order.
func (mi *mirror) apply(raw []byte) subscribe.Frame {
	mi.t.Helper()
	f := checkWire(mi.t, raw)
	mi.frames[f.Type]++
	for _, rows := range [][]subscribe.Row{f.Rows, f.Added, f.Removed, f.Changed} {
		mi.inWireOrder(f, rows)
	}
	switch f.Type {
	case "ack", "resync":
		st := make(map[string]string, len(f.Rows))
		for _, r := range f.Rows {
			st[mi.rowKey(r)] = r.Annotation
		}
		mi.state[f.ID], mi.epoch[f.ID] = st, f.Epoch
	case "delta":
		st := mi.state[f.ID]
		if st == nil || f.Epoch <= mi.epoch[f.ID] {
			mi.t.Fatalf("delta for %q at epoch %d after epoch %d (known: %v)", f.ID, f.Epoch, mi.epoch[f.ID], st != nil)
		}
		mi.epoch[f.ID] = f.Epoch
		for _, r := range f.Added {
			k := mi.rowKey(r)
			if _, held := st[k]; held {
				mi.t.Fatalf("%q epoch %d adds %q twice", f.ID, f.Epoch, k)
			}
			st[k] = r.Annotation
		}
		for _, r := range f.Removed {
			k := mi.rowKey(r)
			if ann, held := st[k]; !held || ann != r.Annotation {
				mi.t.Fatalf("%q epoch %d removes %q (held=%v) with annotation %q, held %q", f.ID, f.Epoch, k, held, r.Annotation, ann)
			}
			delete(st, k)
		}
		for _, r := range f.Changed {
			k := mi.rowKey(r)
			if ann, held := st[k]; !held || ann == r.Annotation {
				mi.t.Fatalf("%q epoch %d changes %q (held=%v) to the annotation it has", f.ID, f.Epoch, k, held)
			}
			st[k] = r.Annotation
		}
		if len(f.Added)+len(f.Removed)+len(f.Changed) == 0 {
			mi.t.Fatalf("empty delta for %q", f.ID)
		}
	default:
		mi.t.Fatalf("unexpected frame type %q", f.Type)
	}
	return f
}

// canonical renders one subscription's mirrored state the way
// Recompute renders the real one.
func (mi *mirror) canonical(id string) []byte {
	names := mi.schema.Names()
	relIx := make(map[string]int, len(names))
	for i, n := range names {
		relIx[n] = i
	}
	keys := make([]string, 0, len(mi.state[id]))
	for k := range mi.state[id] {
		keys = append(keys, k)
	}
	rel := func(k string) string { return k[:strings.IndexByte(k, 0)] }
	sort.Slice(keys, func(i, j int) bool {
		if ri, rj := relIx[rel(keys[i])], relIx[rel(keys[j])]; ri != rj {
			return ri < rj
		}
		return keys[i] < keys[j]
	})
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(strings.Replace(k, "\x00", "\t", 1))
		if ann := mi.state[id][k]; ann != "" {
			b.WriteString("\t" + ann)
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// drain reads every frame the connection has ready into the mirror.
func (mi *mirror) drain(c *subscribe.Conn) {
	mi.t.Helper()
	for {
		raw, err := c.Next(subscribe.Polled)
		if err != nil {
			return
		}
		mi.apply(raw)
	}
}

// subscribeAll registers the specs and feeds their acks to the mirror.
func (mi *mirror) subscribeAll(m *subscribe.Manager, c *subscribe.Conn, specs []subscribe.Spec) {
	mi.t.Helper()
	for _, sp := range specs {
		ack, err := m.Subscribe(c, sp)
		if err != nil {
			mi.t.Fatalf("subscribe %q: %v", sp.ID, err)
		}
		if f := mi.apply(ack); f.Type != "ack" || f.ID != sp.ID || f.Kind != sp.Kind {
			mi.t.Fatalf("bad ack for %q: %+v", sp.ID, f)
		}
	}
}

// check drains the connection and asserts every mirrored subscription
// equals a from-scratch recompute at the reader's newest horizon.
func (mi *mirror) check(m *subscribe.Manager, c *subscribe.Conn, d engine.DB, specs []subscribe.Spec, step string) {
	mi.t.Helper()
	m.Sync()
	mi.drain(c)
	h := d.Horizon()
	for _, sp := range specs {
		want, err := subscribe.Recompute(d.At(h), sp)
		if err != nil {
			mi.t.Fatalf("%s: recompute %q: %v", step, sp.ID, err)
		}
		if got := mi.canonical(sp.ID); !bytes.Equal(got, want) {
			mi.t.Fatalf("%s: subscription %q diverged at epoch %d\nclient:\n%srecompute:\n%s",
				step, sp.ID, h, got, want)
		}
	}
}

// TestProtocolDifferential drives the matrix: the §6.2 synthetic and
// the TPC-C history × both provenance modes × a roomy and a 1-frame
// connection buffer (which drops most frames and forces a resync per
// subscription per commit), comparing the client's composed state to a
// from-scratch recompute after every single committed transaction, and
// once more after a minimization pass. Storage is one partition; the
// subtests keep the shards=1 in their names that a sharded arm once
// needed beside them.
func TestProtocolDifferential(t *testing.T) {
	type history struct {
		name    string
		initial *db.Database
		txns    []db.Transaction
		opts    []engine.Option
		specs   func(d engine.Reader) []subscribe.Spec
	}
	synInitial, synTxns := testWorkload(t, 3)
	tpInitial, tpTxns := subscribe.TPCCHistory(t, 0.002, 40)
	histories := []history{
		{"synthetic", synInitial, synTxns, []engine.Option{engine.WithInitialAnnotations(testAnnot)},
			func(d engine.Reader) []subscribe.Spec { return testSpecs(d, synTxns) }},
		{"tpcc", tpInitial, tpTxns, nil,
			func(engine.Reader) []subscribe.Spec { return subscribe.TPCCMix(tpInitial, tpTxns) }},
	}
	for _, h := range histories {
		for _, mode := range []engine.Mode{engine.ModeNaive, engine.ModeNormalForm} {
			for _, buffer := range []int{4096, 1} {
				t.Run(fmt.Sprintf("%s/shards=1/mode=%v/buffer=%d", h.name, mode, buffer), func(t *testing.T) {
					d := engine.Open(mode, h.initial, h.opts...)
					m := subscribe.NewManager(d)
					defer m.Close()
					c := m.Attach(buffer)
					specs := h.specs(d)
					mi := newMirror(t, d.Schema())
					mi.subscribeAll(m, c, specs)
					for i := range h.txns {
						if err := d.ApplyTransaction(&h.txns[i]); err != nil {
							t.Fatalf("txn %d: %v", i, err)
						}
						mi.check(m, c, d, specs, fmt.Sprintf("txn %d", i))
					}
					if _, err := d.MinimizeAll(context.Background()); err != nil {
						t.Fatal(err)
					}
					mi.check(m, c, d, specs, "minimize")
					st := m.StatsSnapshot()
					if buffer == 1 && (st.FrameDrops == 0 || mi.frames["resync"] == 0) {
						t.Fatalf("a 1-frame buffer forced no resync: %+v, frames %v", st, mi.frames)
					}
					if buffer > 1 && (st.FrameDrops != 0 || mi.frames["resync"] != 0 || mi.frames["delta"] == 0) {
						t.Fatalf("a roomy buffer dropped frames: %+v, frames %v", st, mi.frames)
					}
				})
			}
		}
	}
}

// tapHandle is a handle whose installed commit hook the test can also
// fire, to inject a reset without an engine swap behind it.
type tapHandle struct {
	*engine.Handle
	hook engine.CommitHook
}

func (d *tapHandle) SetCommitHook(h engine.CommitHook) {
	d.hook = h
	d.Handle.SetCommitHook(h)
}

// TestProtocolAcrossResetAndRebind: a CommitReset event and a Swap of
// the handle to a brand-new engine (the snapshot-load path) both flag
// every subscription for resync; the client must reconverge through the
// resync and stay exact for commits after it, and late events from the
// engine swapped away from must be ignored.
func TestProtocolAcrossResetAndRebind(t *testing.T) {
	initialA, txnsA := testWorkload(t, 11)
	d1 := engine.New(engine.ModeNormalForm, initialA, engine.WithInitialAnnotations(testAnnot))
	h := &tapHandle{Handle: new(engine.Handle)}
	h.Swap(d1)
	m := subscribe.NewManager(h)
	defer m.Close()
	c := m.Attach(64)
	specs := testSpecs(d1, txnsA)
	mi := newMirror(t, d1.Schema())
	mi.subscribeAll(m, c, specs)
	for i := range txnsA[:10] {
		if err := d1.ApplyTransaction(&txnsA[i]); err != nil {
			t.Fatal(err)
		}
		mi.check(m, c, d1, specs, fmt.Sprintf("before reset, txn %d", i))
	}

	h.hook(engine.CommitEvent{Kind: engine.CommitReset, Epoch: d1.Horizon()})
	mi.check(m, c, d1, specs, "reset")
	if got := mi.frames["resync"]; got != len(specs) {
		t.Fatalf("a reset offered %d resyncs for %d subscriptions", got, len(specs))
	}
	for i := range txnsA[10:15] {
		if err := d1.ApplyTransaction(&txnsA[10+i]); err != nil {
			t.Fatal(err)
		}
		mi.check(m, c, d1, specs, fmt.Sprintf("after reset, txn %d", i))
	}

	initialB, txnsB := testWorkload(t, 13)
	d2 := engine.New(engine.ModeNormalForm, initialB, engine.WithInitialAnnotations(testAnnot))
	h.Swap(d2)
	// The old engine keeps committing after the swap; its events must
	// not reach the subscriptions now maintained against d2.
	if err := d1.ApplyAll(context.Background(), txnsA[15:]); err != nil {
		t.Fatal(err)
	}
	for i := range txnsB {
		if err := d2.ApplyTransaction(&txnsB[i]); err != nil {
			t.Fatal(err)
		}
		mi.check(m, c, d2, specs, fmt.Sprintf("after rebind, txn %d", i))
	}
	if got := mi.frames["resync"]; got != 2*len(specs) {
		t.Fatalf("reset + swap offered %d resyncs for %d subscriptions", got, len(specs))
	}
	if st := m.StatsSnapshot(); st.Rebuilds != 2 {
		t.Fatalf("reset + swap rebuilt %d times: %+v", st.Rebuilds, st)
	}
}

// TestCommitOrderDelivery asserts delta frames arrive in strictly
// increasing epoch order with no resync interleaved when the
// connection keeps up.
func TestCommitOrderDelivery(t *testing.T) {
	initial, txns := testWorkload(t, 5)
	d := engine.Open(engine.ModeNormalForm, initial,
		engine.WithInitialAnnotations(testAnnot))
	m := subscribe.NewManager(d)
	defer m.Close()
	c := m.Attach(len(txns) + 8)
	if _, err := m.Subscribe(c, subscribe.Spec{ID: "w", Kind: subscribe.KindWatch, Rel: "R"}); err != nil {
		t.Fatal(err)
	}
	if err := d.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	m.Sync()

	var last uint64
	var frames int
	for {
		raw, err := c.Next(subscribe.Polled)
		if err != nil {
			break // drained
		}
		f := checkWire(t, raw)
		if f.Type != "delta" {
			t.Fatalf("frame %d: unexpected type %q (a keeping-up connection must see deltas only)", frames, f.Type)
		}
		if f.Epoch <= last {
			t.Fatalf("frame %d: epoch %d not after %d", frames, f.Epoch, last)
		}
		last = f.Epoch
		frames++
	}
	if frames == 0 {
		t.Fatal("no delta frames delivered")
	}
	st := m.StatsSnapshot()
	if st.FrameDrops != 0 || st.EventDrops != 0 {
		t.Fatalf("unexpected drops on a keeping-up connection: %+v", st)
	}
	if st.FrameBytes == 0 || st.Fanout == 0 || st.Deltas != uint64(frames) {
		t.Fatalf("counters did not follow %d frames: %+v", frames, st)
	}
}

// TestStalledSubscriberNeverBlocksApply registers a subscriber on a
// 1-frame buffer that never reads while the full workload applies; the
// write path must complete promptly, and the subscriber's next reads
// must repair it with a resync snapshot matching a fresh recompute.
func TestStalledSubscriberNeverBlocksApply(t *testing.T) {
	initial, txns := testWorkload(t, 7)
	d := engine.Open(engine.ModeNormalForm, initial, engine.WithInitialAnnotations(testAnnot))
	m := subscribe.NewManager(d)
	defer m.Close()
	c := m.Attach(1)
	sp := subscribe.Spec{ID: "w", Kind: subscribe.KindWatch, Rel: "R"}
	mi := newMirror(t, d.Schema())
	mi.subscribeAll(m, c, []subscribe.Spec{sp})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	start := time.Now()
	if err := d.ApplyAll(ctx, txns); err != nil {
		t.Fatalf("apply blocked behind stalled subscriber: %v (after %v)", err, time.Since(start))
	}
	m.Sync()
	if st := m.StatsSnapshot(); st.FrameDrops == 0 {
		t.Fatalf("expected frame drops on a stalled 1-buffer connection, got %+v", st)
	}
	// The one buffered delta, then the resync snapshot.
	mi.check(m, c, d, []subscribe.Spec{sp}, "after the stall")
	if mi.frames["resync"] != 1 || mi.frames["delta"] != 1 {
		t.Fatalf("stalled subscriber read %v, want one delta and one resync", mi.frames)
	}
}

// TestConcurrentSubscribeUnsubscribe churns connections and
// subscriptions from several goroutines while the workload applies —
// run under -race in CI — then differentially checks a subscription
// that lived through all of it.
func TestConcurrentSubscribeUnsubscribe(t *testing.T) {
	initial, txns := testWorkload(t, 9)
	d := engine.Open(engine.ModeNormalForm, initial, engine.WithInitialAnnotations(testAnnot))
	m := subscribe.NewManager(d)
	defer m.Close()

	keeper := m.Attach(4)
	sp := subscribe.Spec{ID: "keep", Kind: subscribe.KindWatch, Rel: "R"}
	mi := newMirror(t, d.Schema())
	mi.subscribeAll(m, keeper, []subscribe.Spec{sp})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c := m.Attach(2)
				if c == nil {
					return
				}
				id := fmt.Sprintf("churn-%d-%d", g, i)
				if _, err := m.Subscribe(c, subscribe.Spec{
					ID: id, Kind: subscribe.KindDeletion, Tuples: []string{"t_x"},
				}); err != nil {
					t.Error(err)
					c.Close()
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				_, _ = c.Next(ctx)
				cancel()
				if i%2 == 0 {
					m.Unsubscribe(c, id)
				}
				c.Close()
			}
		}(g)
	}

	if err := d.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	mi.check(m, keeper, d, []subscribe.Spec{sp}, "after the churn")

	st := m.StatsSnapshot()
	if st.Subscriptions != 1 || st.Connections != 1 {
		t.Fatalf("churned registrations leaked: %+v", st)
	}
}

// TestSubscribeErrors covers spec validation and duplicate IDs.
func TestSubscribeErrors(t *testing.T) {
	initial, _ := testWorkload(t, 15)
	d := engine.Open(engine.ModeNormalForm, initial,
		engine.WithInitialAnnotations(testAnnot))
	m := subscribe.NewManager(d)
	defer m.Close()
	c := m.Attach(0)

	bad := []subscribe.Spec{
		{Kind: subscribe.KindDeletion},                                                // no tuples
		{Kind: subscribe.KindAbort},                                                   // no labels
		{Kind: subscribe.KindWatch, Rel: "nope"},                                      // unknown relation
		{Kind: subscribe.KindWatch, Rel: "R", Match: []any{nil}},                      // arity
		{Kind: subscribe.KindWatch, Rel: "R", Match: []any{true, nil, nil, nil, nil}}, // type
		{Kind: "nonsense"},
	}
	for i, sp := range bad {
		if _, err := m.Subscribe(c, sp); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
		if _, err := subscribe.Recompute(d, sp); err == nil && sp.Kind != "nonsense" {
			t.Fatalf("bad spec %d recomputed", i)
		}
	}
	if _, err := m.Subscribe(c, subscribe.Spec{ID: "dup", Kind: subscribe.KindWatch, Rel: "R"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Subscribe(c, subscribe.Spec{ID: "dup", Kind: subscribe.KindWatch, Rel: "R"}); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if !m.Unsubscribe(c, "dup") || m.Unsubscribe(c, "dup") {
		t.Fatal("unsubscribe bookkeeping wrong")
	}

	// Auto-assigned IDs must be unique and acknowledged.
	a1, err := m.Subscribe(c, subscribe.Spec{Kind: subscribe.KindWatch, Rel: "R"})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := m.Subscribe(c, subscribe.Spec{Kind: subscribe.KindWatch, Rel: "R"})
	if err != nil {
		t.Fatal(err)
	}
	f1, f2 := checkWire(t, a1), checkWire(t, a2)
	if f1.Type != "ack" || f2.Type != "ack" || f1.ID == "" || f1.ID == f2.ID {
		t.Fatalf("bad acks: %+v / %+v", f1, f2)
	}
}

// TestWireBytesAdversarial: relation names, subscription ids, labels,
// annotation names and values that need every escape encoding/json
// knows, and floats on both sides of its exponent switch, come out as
// encoding/json writes them (checkWire, on every frame the mirror
// reads; invalid UTF-8 does not survive the decode checkWire starts
// with and is compared to encoding/json in internal/db); a NaN or ±Inf
// member fails the subscription, and ends a stream that meets one
// later.
func TestWireBytesAdversarial(t *testing.T) {
	nasty := []string{"", `say "hi"`, `back\slash`, "tab\there\n", "\x00\x1f", "<script>&amp;</script>", "a\u2028b\u2029",
		"héllo 日本語 🚲", "del\x7f", "mixed\u2027\"\\\n"}
	floats := []float64{0, math.Copysign(0, -1), 0.5, 1e-6, 9.999999e-7, 1.5e-9, 5e-324, 1e20, 1e21, -1.2345e21, math.MaxFloat64}
	relName := "we\"ird<&>\\rel\u2028"
	schema := db.MustSchema(db.MustRelationSchema(relName,
		db.Attribute{Name: "id", Kind: db.KindInt},
		db.Attribute{Name: "s", Kind: db.KindString},
		db.Attribute{Name: "f", Kind: db.KindFloat}))
	initial := db.NewDatabase(schema)
	for i, s := range nasty {
		if err := initial.InsertTuple(relName, db.Tuple{db.I(int64(i)), db.S(s), db.F(floats[i%len(floats)])}); err != nil {
			t.Fatal(err)
		}
	}
	annot := func(_ string, tu db.Tuple) core.Annot { return core.TupleAnnot("t\"" + tu[1].Str()) }
	d := engine.Open(engine.ModeNormalForm, initial, engine.WithInitialAnnotations(annot))
	m := subscribe.NewManager(d)
	defer m.Close()
	c := m.Attach(0)
	specs := []subscribe.Spec{
		{ID: "w\"< >\\", Kind: subscribe.KindWatch, Rel: relName},
		{ID: "d\u2029", Kind: subscribe.KindDeletion, Tuples: []string{"t\"" + nasty[1], "t\"" + nasty[6]}},
		{ID: "a", Kind: subscribe.KindAbort, Labels: []string{"lab\"el\n<1>"}},
	}
	mi := newMirror(t, schema)
	mi.subscribeAll(m, c, specs)

	anyID := db.AnyVar("id")
	for i, s := range nasty {
		txn := db.Transaction{Label: fmt.Sprintf("lab\"el\n<%d>", i), Updates: []db.Update{
			db.Modify(relName, db.Pattern{anyID, db.Const(db.S(s)), db.AnyVar("f")},
				[]db.SetClause{db.Keep(), db.SetTo(db.S(s + "\x01'")), db.SetTo(db.F(floats[(i+3)%len(floats)]))}),
			db.Insert(relName, db.Tuple{db.I(int64(100 + i)), db.S(s), db.F(-floats[i%len(floats)])}),
		}}
		if i%4 == 3 {
			txn.Updates = append(txn.Updates, db.Delete(relName, db.Pattern{db.Const(db.I(int64(i - 1))), db.AnyVar("s"), db.AnyVar("f")}))
		}
		if err := d.ApplyTransaction(&txn); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
		mi.check(m, c, d, specs, fmt.Sprintf("txn %d", i))
	}
	if mi.frames["delta"] < len(nasty) {
		t.Fatalf("only %d deltas over %d transactions", mi.frames["delta"], len(nasty))
	}

	for n, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		// A subscription whose next frame would carry the value ends with
		// an error frame …
		poison := db.Transaction{Label: "poison", Updates: []db.Update{
			db.Insert(relName, db.Tuple{db.I(1000), db.S("x"), db.F(bad)})}}
		if err := d.ApplyTransaction(&poison); err != nil {
			t.Fatal(err)
		}
		m.Sync()
		ended := 0
		for {
			raw, err := c.Next(subscribe.Polled)
			if err != nil {
				break
			}
			if f := checkWire(t, raw); f.Type != "error" || f.Code != "unframeable" || !strings.Contains(f.Message, "float") {
				t.Fatalf("%v: the poisoned commit produced %+v, want an error frame", bad, f)
			}
			ended++
		}
		if want := map[bool]int{true: 3, false: 2}[n == 0]; ended != want || m.StatsSnapshot().Subscriptions != 0 {
			t.Fatalf("%v: %d subscriptions ended, want %d; left: %+v", bad, ended, want, m.StatsSnapshot())
		}
		// … and a new subscription whose state holds it is refused, the
		// watch even after the row is deleted: a deleted row stays in a
		// watch's support (its annotation is a − p, not 0).
		if _, err := m.Subscribe(c, specs[0]); err == nil {
			t.Fatalf("%v: a watch over the row was encoded", bad)
		}
		cure := db.Transaction{Label: "cure", Updates: []db.Update{
			db.Delete(relName, db.Pattern{db.Const(db.I(1000)), db.AnyVar("s"), db.AnyVar("f")})}}
		if err := d.ApplyTransaction(&cure); err != nil {
			t.Fatal(err)
		}
		m.Sync()
		if _, err := m.Subscribe(c, specs[0]); err == nil {
			t.Fatalf("%v: a watch over the deleted row was encoded", bad)
		}
		for _, sp := range specs[1:] {
			if _, err := m.Subscribe(c, sp); err != nil {
				t.Fatalf("%v: what-if %q refused after the row was deleted: %v", bad, sp.ID, err)
			}
		}
	}
}

// TestFrameSizeCeiling: every modification of the same rows also
// matches the tombstones the previous ones left, so a watched row's
// annotation doubles as a tree with each commit while its DAG grows by
// a node or two. A frame renders trees: past maxFrameNodes the watch
// must end with an error frame instead of a gigabyte of text, and the
// what-if beside it, which carries no annotations, must not notice.
func TestFrameSizeCeiling(t *testing.T) {
	schema := db.MustSchema(db.MustRelationSchema("P",
		db.Attribute{Name: "name", Kind: db.KindString},
		db.Attribute{Name: "cat", Kind: db.KindString},
		db.Attribute{Name: "price", Kind: db.KindInt}))
	initial := db.NewDatabase(schema)
	for _, name := range []string{"bike", "racket"} {
		if err := initial.InsertTuple("P", db.Tuple{db.S(name), db.S("sport"), db.I(1)}); err != nil {
			t.Fatal(err)
		}
	}
	d := engine.Open(engine.ModeNormalForm, initial)
	m := subscribe.NewManager(d)
	defer m.Close()
	c := m.Attach(256)
	watch := subscribe.Spec{ID: "w", Kind: subscribe.KindWatch, Rel: "P"}
	del := subscribe.Spec{ID: "d", Kind: subscribe.KindDeletion, Tuples: []string{"t0"}}
	mi := newMirror(t, schema)
	mi.subscribeAll(m, c, []subscribe.Spec{watch, del})
	sel := db.Pattern{db.AnyVar("n"), db.Const(db.S("sport")), db.AnyVar("p")}
	for i := 0; i < 30; i++ {
		txn := db.Transaction{Label: fmt.Sprintf("T%d", i), Updates: []db.Update{
			db.Modify("P", sel, []db.SetClause{db.Keep(), db.Keep(), db.SetTo(db.I(int64(100 + i)))})}}
		if err := d.ApplyTransaction(&txn); err != nil {
			t.Fatal(err)
		}
		m.Sync()
		for {
			raw, err := c.Next(subscribe.Polled)
			if err != nil {
				break
			}
			if len(raw) > 8<<20 {
				// The watch's last deltas before the ceiling: too big to
				// decode and re-encode here, and past what is compared.
				if len(raw) > 160<<20 || i < 14 || !bytes.HasPrefix(raw, []byte(`{"type":"delta","id":"w"`)) {
					t.Fatalf("commit %d: a %d MB frame starting %s", i, len(raw)>>20, raw[:40])
				}
				continue
			}
			if f := checkWire(t, raw); f.Type == "error" {
				if f.ID != "w" || f.Code != "unframeable" || !strings.Contains(f.Message, "expression nodes") {
					t.Fatalf("commit %d: unexpected error frame %+v", i, f)
				}
				mi.frames["error"]++
				delete(mi.state, "w")
				continue
			}
			mi.apply(raw)
		}
		if i < 14 { // the tree-walking oracle is exponential here too
			mi.check(m, c, d, []subscribe.Spec{watch, del}, fmt.Sprintf("commit %d", i))
		}
	}
	if mi.frames["error"] != 1 || m.StatsSnapshot().Subscriptions != 1 {
		t.Fatalf("the watch did not end exactly once: frames %v, %+v", mi.frames, m.StatsSnapshot())
	}
	// The what-if went on: its client holds exactly the rows the
	// (DAG-linear) kernel finds alive without t0.
	k, alive := upstruct.NewKernel(upstruct.Dead(core.TupleAnnot("t0"))), 0
	d.Rows(func(_ string, _ db.Tuple, ann *core.Expr) {
		if k.Eval(ann) {
			alive++
		}
	})
	if got := len(mi.state["d"]); got != alive || alive == 0 {
		t.Fatalf("the what-if's client holds %d rows, the kernel finds %d alive", got, alive)
	}
	if _, err := m.Subscribe(c, watch); err == nil {
		t.Fatal("a watch whose ack exceeds the ceiling was accepted")
	}
}
