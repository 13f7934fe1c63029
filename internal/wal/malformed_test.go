package wal_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/wal"
)

// promptly runs f on a goroutine of its own and fails the test when f
// panics, or has not returned after a second: a writer that died holding
// the write lock leaves the next one waiting for good.
func promptly(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		f()
	}()
	select {
	case p := <-done:
		if p != nil {
			t.Fatalf("%s: panic: %v", what, p)
		}
	case <-time.After(time.Second):
		t.Fatalf("%s: still running after a second (a leaked lock?)", what)
	}
}

// TestMalformedUpdateNeitherWedgesNorBricks: an update outside what
// db.Update.Validate admits, handed to the library directly (the parsers
// never build one), is an ErrBadTuple error of its transaction — second
// in it, so the first update stays applied, as for any failed query. It
// is not a panic under the write lock that blocks the next writer, and
// not a logged record that every later recovery of the directory, and
// every follower, dies replaying: they replay both logged failures and
// count them (replayFailed).
func TestMalformedUpdateNeitherWedgesNorBricks(t *testing.T) {
	stock := func(site string) db.Tuple { return db.Tuple{db.S(site), db.I(7), db.I(1)} }
	all := db.AllPattern(3)
	malformed := map[string]db.Update{
		"insert one value short":      db.Insert("Stock", db.Tuple{db.S("x"), db.I(1)}),
		"insert string in int":        db.Insert("Stock", db.Tuple{db.S("x"), db.S("one"), db.I(1)}),
		"modify with a short Set":     db.Modify("Stock", all, []db.SetClause{db.Keep(), db.SetTo(db.I(9))}),
		"delete with a short pattern": db.Delete("Stock", db.Pattern{db.Const(db.S("east"))}),
		"pattern repeats a variable":  db.Delete("Stock", db.Pattern{db.AnyVar("x"), db.AnyVar("x"), db.AnyVar("q")}),
		"pinned modify, a long Set":   db.Modify("Stock", db.ConstPattern(stock("x")), []db.SetClause{db.Keep(), db.Keep(), db.Keep(), db.SetTo(db.I(1))}),
		"update of no kind":           {Kind: db.UpdateKind(9), Rel: "Stock"},
	}
	// bad is a transaction whose first update is fine and whose second is
	// not; good one that is fine throughout.
	bad := func(label string, u db.Update) db.Transaction {
		return db.Transaction{Label: label, Updates: []db.Update{db.Insert("Stock", stock(label)), u}}
	}
	good := func(label string) db.Transaction {
		return db.Transaction{Label: label, Updates: []db.Update{
			db.Insert("Stock", stock(label)),
			db.Modify("Stock", db.Pattern{db.Const(db.S("east")), db.AnyVar("p"), db.AnyVar("q")}, []db.SetClause{db.Keep(), db.Keep(), db.SetTo(db.I(0))}),
		}}
	}
	initial := db.NewDatabase(goldenSchema())
	for _, row := range []db.Tuple{{db.S("east"), db.I(2), db.I(12)}, {db.S("east"), db.I(9), db.I(9)}} {
		if err := initial.InsertTuple("Stock", row); err != nil {
			t.Fatal(err)
		}
	}
	refused := func(t *testing.T, what string, err error) {
		t.Helper()
		if !errors.Is(err, engine.ErrBadTuple) {
			t.Errorf("%s: %v, want an ErrBadTuple error", what, err)
		}
	}
	ctx := context.Background()

	for name, u := range malformed {
		// Storage is one partition; the names keep their old shard suffix.
		t.Run(name+"/shards=1", func(t *testing.T) {
			e := engine.New(engine.ModeNormalForm, initial)
			promptly(t, "Engine.ApplyTransaction", func() {
				tx := bad("b", u)
				refused(t, "Engine.ApplyTransaction", e.ApplyTransaction(&tx))
			})
			if e.Annotation("Stock", stock("b")) == nil {
				t.Error("engine: the update before the malformed one did not stay applied")
			}
			promptly(t, "engine: the next transaction", func() {
				tx := good("g")
				if err := e.ApplyTransaction(&tx); err != nil {
					t.Error(err)
				}
			})

			dir := t.TempDir()
			st, err := wal.Open(dir, wal.WithInitialDatabase(initial))
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			promptly(t, "Store.ApplyTransaction", func() {
				tx := bad("b", u)
				refused(t, "Store.ApplyTransaction", st.ApplyTransaction(&tx))
			})
			promptly(t, "Store.ApplyBatch", func() {
				applied, err := st.ApplyBatch(ctx, []db.Transaction{good("g1"), bad("b2", u), good("g3")})
				if refused(t, "Store.ApplyBatch", err); applied != 1 {
					t.Errorf("Store.ApplyBatch applied %d transactions, want the one before the malformed one", applied)
				}
			})
			if st.Annotation("Stock", stock("b")) == nil || st.Annotation("Stock", stock("b2")) == nil || st.Annotation("Stock", stock("g3")) != nil {
				t.Error("store: want each failed transaction's first update applied and nothing after the failed one of the batch")
			}
			promptly(t, "store: the next transaction", func() {
				tx := good("g")
				if err := st.ApplyTransaction(&tx); err != nil {
					t.Error(err)
				}
			})
			want := snapshotOf(t, st)

			_, src := startLeaderServer(t, st)
			f := openTestFollower(t, t.TempDir(), src)
			waitApplied(t, f, st.Stats().LSN)
			requireSameBytes(t, "follower", want, snapshotOf(t, f))
			if n := f.WALStats().ReplayFailed; n != 2 {
				t.Errorf("the follower counted %d failed replays, want the 2 logged failures", n)
			}

			st.Crash()
			var re *wal.Store
			promptly(t, "wal.Open after the crash", func() { re, err = wal.Open(dir) })
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			requireSameBytes(t, "recovered", want, snapshotOf(t, re))
			if n := re.Stats().ReplayFailed; n != 2 {
				t.Errorf("recovery counted %d failed replays, want the 2 logged failures", n)
			}
		})
	}
}
