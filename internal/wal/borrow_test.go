package wal_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"slices"
	"testing"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/parser"
	"hyperprov/internal/subscribe"
	"hyperprov/internal/tpcc"
	"hyperprov/internal/wal"
	"hyperprov/internal/workload"
)

// borrowLoad is one log for the borrow-contract test: request bodies of
// a few transactions each, and the two ways to parse one.
type borrowLoad struct {
	name    string
	initial *db.Database
	txns    []db.Transaction
	format  func(*db.Schema, []db.Transaction) (string, error)
	owned   func(*db.Schema, string) ([]db.Transaction, error)
	batch   func(*db.Schema, []byte) (parser.Batch, error)
}

// borrowOutcome is everything observable a run leaves behind.
type borrowOutcome struct {
	// states holds, per request, the snapshot of each target (the
	// engine, the store, its follower) once it applied.
	states [][]byte
	// epochs holds, per time-travelling target, the snapshot at every
	// epoch, taken after the last request was released and poisoned.
	epochs [][]byte
	// hooks holds what a commit hook may keep of each event, frames the
	// bytes of every frame 32 subscriptions were sent, wal the segment
	// bytes of the leader's and the follower's directories.
	hooks  []hookEvent
	frames [2][]byte
	wal    [2][]byte
}

type hookEvent struct {
	Epoch uint64
	Kind  engine.CommitKind
	Label string
	Rows  []engine.RowRef
}

// borrowSpecs builds the wire benchmark's mix of 32 subscriptions over
// any schema: 20 watches (every other one pinned to the first attribute
// of a stored row), 6 deletion and 6 abort what-ifs.
func borrowSpecs(ld borrowLoad) []subscribe.Spec {
	names := ld.initial.Schema().Names()
	var specs []subscribe.Spec
	for i := 0; i < 20; i++ {
		rel := ld.initial.Schema().Relation(names[i%len(names)])
		sp := subscribe.Spec{ID: fmt.Sprintf("w%d", i), Kind: subscribe.KindWatch, Rel: rel.Name}
		if rows := ld.initial.Instance(rel.Name).Tuples(); i%2 == 1 && len(rows) > 0 {
			sp.Match = make([]any, rel.Arity())
			switch v := rows[i%len(rows)][0]; v.Kind() {
			case db.KindString:
				sp.Match[0] = v.Str()
			case db.KindInt:
				sp.Match[0] = float64(v.Int())
			default:
				sp.Match[0] = v.Float()
			}
		}
		specs = append(specs, sp)
	}
	for i := 0; i < 6; i++ {
		specs = append(specs,
			subscribe.Spec{ID: fmt.Sprintf("d%d", i), Kind: subscribe.KindDeletion, Tuples: []string{fmt.Sprintf("t%d", 3*i), fmt.Sprintf("t%d", 50+i)}},
			subscribe.Spec{ID: fmt.Sprintf("a%d", i), Kind: subscribe.KindAbort, Labels: []string{ld.txns[(7*i)%len(ld.txns)].Label}})
	}
	return specs
}

// runBorrowLoad sends the load's requests to an engine, a persistent
// store and — through its replication stream — a follower. Owned, transactions come from the Parse*Log
// entry points and nothing is recycled but the follower's decoder
// slabs; borrowed, they come from pooled batches over a request buffer,
// every Reset poisons what it takes back (the follower's decoder
// included) and the buffer is overwritten once the batch is released.
func runBorrowLoad(t *testing.T, ld borrowLoad, borrowed bool) borrowOutcome {
	t.Helper()
	db.PoisonOnReset.Store(borrowed)
	defer db.PoisonOnReset.Store(false)
	ctx := context.Background()
	schema := ld.initial.Schema()
	var out borrowOutcome

	e := engine.New(engine.ModeNormalForm, ld.initial)
	e.SetCommitHook(func(ev engine.CommitEvent) {
		out.hooks = append(out.hooks, hookEvent{ev.Epoch, ev.Kind, ev.Label, slices.Clone(ev.Rows)})
	})
	dirs := [2]string{t.TempDir(), t.TempDir()}
	st, err := wal.Open(dirs[0], wal.WithMode(engine.ModeNormalForm), wal.WithInitialDatabase(ld.initial), wal.WithSync(wal.SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, src := startLeaderServer(t, st)
	follower := openTestFollower(t, dirs[1], src, wal.WithSync(wal.SyncNever))
	waitApplied(t, follower, st.LSN())

	var conns [2]*subscribe.Conn
	var managers [2]*subscribe.Manager
	for i, d := range []engine.DB{st, follower} {
		managers[i] = subscribe.NewManager(d)
		defer managers[i].Close()
		conns[i] = managers[i].Attach(subscribe.MaxConnBuffer)
		for _, sp := range borrowSpecs(ld) {
			ack, err := managers[i].Subscribe(conns[i], sp)
			if err != nil {
				t.Fatalf("subscribing %+v: %v", sp, err)
			}
			out.frames[i] = append(out.frames[i], ack...)
		}
	}
	drained, stop := context.WithCancel(ctx)
	stop() // Next on an empty queue returns instead of waiting

	writers := []engine.DB{e, st}
	for lo, n := 0, 1; lo < len(ld.txns); lo, n = lo+n, n%4+1 {
		text, err := ld.format(schema, ld.txns[lo:min(lo+n, len(ld.txns))])
		if err != nil {
			t.Fatal(err)
		}
		var txns []db.Transaction
		release := func() {}
		if borrowed {
			body := []byte(text)
			batch, err := ld.batch(schema, body)
			if err != nil {
				t.Fatal(err)
			}
			txns = batch.Txns
			release = func() {
				batch.Release()
				for i := range body {
					body[i] = 0xff
				}
			}
		} else if txns, err = ld.owned(schema, text); err != nil {
			t.Fatal(err)
		}
		for _, d := range writers {
			if applied, err := d.ApplyBatch(ctx, txns); err != nil || applied != len(txns) {
				t.Fatalf("request at %d: applied %d of %d: %v", lo, applied, len(txns), err)
			}
		}
		release()
		waitApplied(t, follower, st.LSN())
		for _, d := range append(writers, follower) {
			out.states = append(out.states, snapshotOf(t, d))
		}
		for i, m := range managers {
			m.Sync()
			for {
				frame, err := conns[i].Next(drained)
				if err != nil {
					break
				}
				out.frames[i] = append(out.frames[i], frame...)
			}
		}
	}
	for _, d := range writers {
		for ep := uint64(1); ep <= d.Horizon(); ep++ {
			out.epochs = append(out.epochs, snapshotOf(t, d.At(ep)))
		}
	}
	for i, m := range managers {
		if s := m.StatsSnapshot(); s.FrameDrops+s.EventDrops+s.Rebuilds != 0 || s.Subscriptions != 32 {
			t.Fatalf("subscriptions on target %d lost frames: %+v", i, s)
		}
	}
	follower.Close()
	st.Close()
	for i, dir := range dirs {
		for _, seg := range dataFiles(t, dir, ".seg") {
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			out.wal[i] = append(out.wal[i], data...)
		}
	}
	return out
}

// TestBorrowedTransactionsLeaveNothingBehind is the borrow contract
// (db.Transaction) checked from outside: a transaction's slices and the
// bytes it was parsed from may be recycled the moment Apply returns,
// because nothing — storage, WAL and replication stream,
// follower replay, commit hooks, subscriptions — keeps any of it but
// rows and labels. Every snapshot, at every request and then at every
// epoch, every retained hook event, every subscription frame and every
// WAL byte is the same with recycling and poisoning on as without.
func TestBorrowedTransactionsLeaveNothingBehind(t *testing.T) {
	gen := tpcc.NewGenerator(tpcc.Scaled(0.004))
	tpccInitial, err := gen.InitialDatabase()
	if err != nil {
		t.Fatal(err)
	}
	synthInitial, synth, err := workload.Generate(workload.Config{
		Tuples: 300, Pool: 30, Group: 3, Updates: 150, QueriesPerTxn: 3, MergeRatio: 0.2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	loads := []borrowLoad{
		{"tpcc", tpccInitial, gen.Transactions(80), parser.FormatSQLLog, parser.ParseSQLLog, parser.ParseSQLBatch},
		{"synthetic", synthInitial, synth, parser.FormatSQLLog, parser.ParseSQLLog, parser.ParseSQLBatch},
		{"datalog", synthInitial, synth, parser.FormatDatalogLog, parser.ParseDatalogLog, parser.ParseDatalogBatch},
	}
	for _, ld := range loads {
		t.Run(ld.name, func(t *testing.T) {
			want := runBorrowLoad(t, ld, false)
			got := runBorrowLoad(t, ld, true)
			if len(want.states) == 0 || len(want.states) != len(got.states) || len(want.epochs) != len(got.epochs) {
				t.Fatalf("%d and %d states, %d and %d epochs", len(want.states), len(got.states), len(want.epochs), len(got.epochs))
			}
			for i := range want.states {
				// Three targets per request; the owned run's engine is the
				// reference for all of them.
				if ref := want.states[i-i%3]; !bytes.Equal(want.states[i], ref) || !bytes.Equal(got.states[i], ref) {
					t.Fatalf("request %d, target %d: snapshot differs from the owned engine's", i/3, i%3)
				}
			}
			for i := range want.epochs {
				if !bytes.Equal(want.epochs[i], got.epochs[i]) {
					t.Fatalf("epoch snapshot %d changed after its transaction was recycled", i)
				}
			}
			if len(want.hooks) < len(ld.txns) || !reflect.DeepEqual(want.hooks, got.hooks) {
				t.Errorf("hook: retained events differ (%d and %d)", len(want.hooks), len(got.hooks))
			}
			for i, who := range []string{"leader", "follower"} {
				if len(want.frames[i]) == 0 || !bytes.Equal(want.frames[i], got.frames[i]) {
					t.Errorf("%s: subscription frames differ (%d and %d bytes)", who, len(want.frames[i]), len(got.frames[i]))
				}
				if len(want.wal[i]) == 0 || !bytes.Equal(want.wal[i], got.wal[i]) {
					t.Errorf("%s: WAL segments differ (%d and %d bytes)", who, len(want.wal[i]), len(got.wal[i]))
				}
			}
			if !bytes.Equal(got.wal[0], got.wal[1]) {
				t.Errorf("the follower's log is not the leader's (%d and %d bytes)", len(got.wal[1]), len(got.wal[0]))
			}
		})
	}
}
