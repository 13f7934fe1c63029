package engine_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/tpcc"
	"hyperprov/internal/workload"
)

// batchCase is one input of the shared-scan differential: a log, the
// attributes of R indexed before it, and where it stops early — a
// malformed update fails transaction failAt, or the context is cancelled
// once cancelAt transactions committed (0: neither).
type batchCase struct {
	name     string
	initial  *db.Database
	txns     []db.Transaction
	index    []string
	failAt   int
	cancelAt int
}

// plannedAt is what the planner had counted when one epoch committed.
type plannedAt struct {
	epoch                             uint64
	full, index, auto, point, matched uint64
}

func batchCases(t *testing.T) []batchCase {
	t.Helper()
	synth := func(group int, merge float64, seed int64) (*db.Database, []db.Transaction) {
		initial, txns, err := workload.Generate(workload.Config{
			Tuples: 300, Pool: 60, Group: group, Updates: 240, QueriesPerTxn: 2, MergeRatio: merge, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return initial, txns
	}
	var cases []batchCase
	for _, g := range []int{1, 4} {
		for _, merge := range []float64{0, 0.3} {
			initial, txns := synth(g, merge, int64(900+g))
			cases = append(cases, batchCase{name: fmt.Sprintf("synthetic group=%d merge=%v", g, merge), initial: initial, txns: txns})
		}
	}

	initial, txns := setColumnLog()
	cases = append(cases, batchCase{name: "modifications set the selected column", initial: initial, txns: txns})

	initial, txns, err := workload.GenerateMultiColumn(workload.Config{Tuples: 400, Group: 5, Updates: 240, QueriesPerTxn: 2, Seed: 907})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		batchCase{name: "multi-column", initial: initial, txns: txns},
		batchCase{name: "multi-column, cat indexed beforehand", initial: initial, txns: txns, index: []string{"cat"}})

	g := tpcc.NewGenerator(tpcc.Scaled(0.003))
	if initial, err = g.InitialDatabase(); err != nil {
		t.Fatal(err)
	}
	cases = append(cases, batchCase{name: "tpcc", initial: initial, txns: g.Transactions(120)})

	initial, txns = synth(1, 0.3, 911)
	cases = append(cases, batchCase{name: "grp indexed beforehand", initial: initial, txns: txns, index: []string{"grp"}})

	// A string constant on the integer grp column fails checkUpdate:
	// transaction 23 keeps its two good queries and the log stops there.
	// The batch collects the malformed selection into its grp pass like
	// any other.
	initial, txns = synth(1, 0, 913)
	bad := db.Delete("R", db.Pattern{db.AnyVar("id"), db.Const(db.S("x")), db.AnyVar("cat"), db.AnyVar("val"), db.AnyVar("pad")})
	txns[23].Updates = append(txns[23].Updates[:2:2], bad)
	cases = append(cases, batchCase{name: "failing update", initial: initial, txns: txns, failAt: 23})

	initial, txns = synth(4, 0.3, 917)
	cases = append(cases, batchCase{name: "cancelled", initial: initial, txns: txns, cancelAt: 17})
	return cases
}

// setColumnLog is a log over R(K, V) whose modifications move the rows
// of V = i to V = i+8, selected again eight transactions later: a batch
// selects rows it appended itself, past every pass's end.
func setColumnLog() (*db.Database, []db.Transaction) {
	schema := db.MustSchema(db.MustRelationSchema("R",
		db.Attribute{Name: "K", Kind: db.KindInt},
		db.Attribute{Name: "V", Kind: db.KindInt},
	))
	initial := db.NewDatabase(schema)
	for k := 0; k < 200; k++ {
		if err := initial.InsertTuple("R", db.Tuple{db.I(int64(k)), db.I(int64(k % 8))}); err != nil {
			panic(err)
		}
	}
	onV := func(v int) db.Pattern { return db.Pattern{db.AnyVar("k"), db.Const(db.I(int64(v)))} }
	var txns []db.Transaction
	for i := 0; i < 120; i++ {
		txns = append(txns, db.Transaction{Label: fmt.Sprintf("s%d", i), Updates: []db.Update{
			db.Modify("R", onV(i), []db.SetClause{db.Keep(), db.SetTo(db.I(int64(i + 8)))}),
			db.Insert("R", db.Tuple{db.I(int64(1000 + i)), db.I(int64(i + 9))}),
			db.Delete("R", onV(i+3)),
		}})
	}
	return initial, txns
}

// runLogged applies c's log to a fresh engine through apply, recording
// the planner's counters at every commit, and returns the engine, the
// records, how many transactions applied and the error that stopped it.
func runLogged(t *testing.T, c batchCase, mode engine.Mode, opts []engine.Option,
	apply func(ctx context.Context, e *engine.Engine) (int, error)) (*engine.Engine, []plannedAt, int, error) {
	t.Helper()
	e := engine.New(mode, c.initial, opts...)
	for _, attr := range c.index {
		if err := e.BuildIndex("R", attr); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var log []plannedAt
	e.SetCommitHook(func(ev engine.CommitEvent) {
		ps := e.PlannerStats()
		log = append(log, plannedAt{ev.Epoch, ps.FullScans, ps.IndexScans, ps.AutoBuilds, ps.PointLookups, ps.RowsMatched})
		if c.cancelAt > 0 && len(log) == c.cancelAt {
			cancel()
		}
	})
	applied, err := apply(ctx, e)
	return e, log, applied, err
}

// samePointersAt holds e to ref at one epoch: the same rows in the same
// order, each with the very annotation node (normal form).
func samePointersAt(t *testing.T, label string, ref, e *engine.Engine, epoch uint64) {
	t.Helper()
	type visited struct {
		t   db.Tuple
		ann *core.Expr
	}
	var want []visited
	ref.At(epoch).Rows(func(_ string, tp db.Tuple, ann *core.Expr) { want = append(want, visited{tp.Clone(), ann}) })
	i := 0
	e.At(epoch).Rows(func(_ string, tp db.Tuple, ann *core.Expr) {
		if i >= len(want) || !want[i].t.Equal(tp) || want[i].ann != ann {
			t.Fatalf("%s: row %d is %v, the reference's %v", label, i, tp, want[min(i, len(want)-1)].t)
		}
		i++
	})
	if i != len(want) {
		t.Fatalf("%s: %d rows, the reference %d", label, i, len(want))
	}
}

// TestBatchScanMatchesPerTransaction is the shared scans' contract: a log
// applied through ApplyBatch, in batches of 1, 2, 25, 100 and the whole
// log, leaves what the same log applied transaction by transaction
// leaves — the same applied prefix, the same rows in the same order with
// pointer-equal annotations at every epoch, the same planner decisions at
// every epoch and the same snapshot bytes — in both modes, with live
// matching off and on, the advisor off and at 4.
func TestBatchScanMatchesPerTransaction(t *testing.T) {
	for _, c := range batchCases(t) {
		for _, mode := range bothModes {
			for _, live := range []bool{false, true} {
				for _, auto := range []int{0, 4} {
					opts := []engine.Option{engine.WithLiveMatching(live), engine.WithAutoIndex(auto)}
					cfg := fmt.Sprintf("%s, %s, live=%v, autoindex=%d", c.name, mode, live, auto)
					ref, refLog, refApplied, refErr := runLogged(t, c, mode, opts, func(ctx context.Context, e *engine.Engine) (int, error) {
						for i := range c.txns {
							if err := ctx.Err(); err != nil {
								return i, err
							}
							if err := e.ApplyTransaction(&c.txns[i]); err != nil {
								return i, err
							}
						}
						return len(c.txns), nil
					})
					switch {
					case c.failAt > 0 && (refApplied != c.failAt || !errors.Is(refErr, engine.ErrBadTuple)),
						c.cancelAt > 0 && (refApplied != c.cancelAt || !errors.Is(refErr, context.Canceled)),
						c.failAt == 0 && c.cancelAt == 0 && refErr != nil:
						t.Fatalf("%s: the reference applied %d: %v", cfg, refApplied, refErr)
					}
					refSnap := snapshotOf(t, ref)
					var passes uint64
					for _, size := range []int{1, 2, 25, 100, len(c.txns)} {
						label := fmt.Sprintf("%s, batches of %d", cfg, size)
						e, log, applied, err := runLogged(t, c, mode, opts, func(ctx context.Context, e *engine.Engine) (int, error) {
							applied := 0
							for applied < len(c.txns) {
								n, err := e.ApplyBatch(ctx, c.txns[applied:min(applied+size, len(c.txns))])
								if applied += n; err != nil {
									return applied, err
								}
							}
							return applied, nil
						})
						if applied != refApplied || (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
							t.Fatalf("%s: applied %d (%v), the reference %d (%v)", label, applied, err, refApplied, refErr)
						}
						if len(log) != len(refLog) {
							t.Fatalf("%s: %d commits, the reference %d", label, len(log), len(refLog))
						}
						for i := range log {
							if log[i] != refLog[i] {
								t.Fatalf("%s: commit %d planned %+v, the reference %+v", label, i, log[i], refLog[i])
							}
							if mode == engine.ModeNormalForm {
								samePointersAt(t, fmt.Sprintf("%s, epoch %d", label, log[i].epoch), ref, e, log[i].epoch)
							}
						}
						// Naive annotations are copies, compared node by node.
						diffStreams(t, label, streamRows(ref), streamRows(e))
						if !bytes.Equal(refSnap, snapshotOf(t, e)) {
							t.Fatalf("%s: snapshot bytes differ from the reference", label)
						}
						if ps := e.PlannerStats(); ps.BatchScans > ps.FullScans {
							t.Fatalf("%s: more batch scans than full scans: %+v", label, ps)
						}
						passes += e.PlannerStats().BatchPasses
					}
					// Without the advisor, every log shares passes, except the one
					// whose every selection pins the column indexed beforehand.
					if auto == 0 && (passes == 0) != slices.Contains(c.index, "grp") {
						t.Fatalf("%s: %d passes over every batch size", cfg, passes)
					}
				}
			}
		}
	}
}

// stepCtx runs step each time ApplyBatch checks it, before each of the
// batch's transactions and outside the write lock.
type stepCtx struct {
	context.Context
	step func()
}

func (c stepCtx) Err() error {
	c.step()
	return nil
}

// TestBatchScanBesideConcurrentWriter (run under -race): a batch of
// grp = k modifications shares its passes, then, before each of its
// transactions, another goroutine commits an insert with one of the
// batch's grp values — at a position past every pass's end — and after
// every tenth insert a batch of its own, which resets and rebuilds the
// passes the first batch is still using. The first batch must select the
// inserted rows, as a serial replay in commit order does.
func TestBatchScanBesideConcurrentWriter(t *testing.T) {
	initial, _, err := workload.Generate(workload.Config{Tuples: 2000, Pool: 40, Group: 1, Updates: 1, Seed: 919})
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]*db.Transaction{}
	txns := func(n int, label string, u func(i int) db.Update) []db.Transaction {
		out := make([]db.Transaction, n)
		for i := range out {
			out[i] = db.Transaction{Label: fmt.Sprintf("%s%d", label, i), Updates: []db.Update{u(i)}}
		}
		for i := range out {
			byLabel[out[i].Label] = &out[i]
		}
		return out
	}
	onGrp := func(g int) db.Pattern {
		return db.Pattern{db.AnyVar("id"), db.Const(db.I(int64(g % 8))), db.AnyVar("cat"), db.AnyVar("val"), db.AnyVar("pad")}
	}
	batch := txns(120, "b", func(i int) db.Update {
		return db.Modify("R", onGrp(i), []db.SetClause{db.Keep(), db.Keep(), db.Keep(), db.SetTo(db.I(int64(i))), db.Keep()})
	})
	inserts := txns(40, "w", func(i int) db.Update {
		return db.Insert("R", db.Tuple{db.I(int64(100000 + i)), db.I(int64(i % 8)), db.S("alpha"), db.I(0), db.S("payload")})
	})
	others := make([][]db.Transaction, len(inserts)/10)
	for j := range others {
		others[j] = txns(5, fmt.Sprintf("c%d.", j), func(i int) db.Update { return db.Delete("R", onGrp(i+j)) })
	}

	e := engine.New(engine.ModeNormalForm, initial)
	var labels []string
	e.SetCommitHook(func(ev engine.CommitEvent) { labels = append(labels, ev.Label) })
	next, done := make(chan int), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the other writer: one step per transaction of the batch
		defer wg.Done()
		for i := range next {
			if err := e.ApplyTransaction(&inserts[i]); err != nil {
				t.Error(err)
			}
			if i%10 == 9 {
				if _, err := e.ApplyBatch(context.Background(), others[i/10]); err != nil {
					t.Error(err)
				}
			}
			done <- struct{}{}
		}
	}()
	steps := 0
	ctx := stepCtx{context.Background(), func() {
		if steps < len(inserts) {
			next <- steps
			<-done
		}
		steps++
	}}
	_, err = e.ApplyBatch(ctx, batch)
	close(next)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if ps := e.PlannerStats(); ps.BatchPasses < 1+uint64(len(others)) || ps.BatchScans == 0 {
		t.Fatalf("the batches shared too few passes: %+v", ps)
	}
	serial := engine.New(engine.ModeNormalForm, initial)
	for _, label := range labels {
		if err := serial.ApplyTransaction(byLabel[label]); err != nil {
			t.Fatal(err)
		}
	}
	want, got := streamRows(serial), streamRows(e)
	diffStreams(t, "beside a writer", want, got)
	diffPointers(t, "beside a writer", want, got)
	if !bytes.Equal(snapshotOf(t, serial), snapshotOf(t, e)) {
		t.Fatal("snapshot differs from the serial replay in commit order")
	}
}
