package wal_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/wal"
)

// requireEpochIsLSN asserts the store invariant: every logged record took
// exactly one epoch and nothing unlogged took one, so the committed
// horizon is at epoch LSN. Reading the LSN takes the store's lock, so no
// write is half done when the horizon is read after it.
func requireEpochIsLSN(t *testing.T, label string, lsn uint64, d engine.DB) {
	t.Helper()
	if h := d.Horizon(); h != lsn {
		t.Fatalf("%s: horizon epoch %d, LSN %d", label, h, lsn)
	}
}

// requireSameEpochs compares leader and follower views at every absolute
// epoch both hold: from the newer restore epoch up to the horizon.
func requireSameEpochs(t *testing.T, label string, st *wal.Store, f *wal.Follower) {
	t.Helper()
	from := max(st.MVCCStats().RestoreEpoch, f.MVCCStats().RestoreEpoch)
	for k := from; k <= st.Horizon(); k++ {
		requireSameReads(t, fmt.Sprintf("%s, epoch %d", label, k), st.At(k), f.At(k))
	}
}

// TestLogPositionIsTheEpoch walks every write path of a store, and every
// way each can fail, checking Horizon() == LSN() after each on
// the leader, on the leader after a crash and reopen, and on a follower
// after its checkpoint bootstrap, after a resume and after a resync; the
// two agree at every epoch they both hold.
func TestLogPositionIsTheEpoch(t *testing.T) {
	initial, txns := smallWorkload(t)
	ldir := t.TempDir()
	open := func() *wal.Store {
		t.Helper()
		st, err := wal.Open(ldir,
			wal.WithMode(engine.ModeNormalForm),
			wal.WithInitialDatabase(initial),
			wal.WithSync(wal.SyncNever),
			wal.WithHeartbeatEvery(20*time.Millisecond),
		)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := open()
	requireEpochIsLSN(t, "bootstrap", st.LSN(), st)
	// The bootstrap checkpoint is at LSN 0: recovery restores at epoch 0.
	st.Crash()
	st = open()
	requireEpochIsLSN(t, "recovered from the bootstrap checkpoint", st.LSN(), st)

	lp, src := startLeaderServer(t, st)
	if err := st.ApplyAll(context.Background(), txns[:3]); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A fresh follower bootstraps from the checkpoint at LSN 3.
	fdir := t.TempDir()
	f := openTestFollower(t, fdir, src, wal.WithSync(wal.SyncNever))
	check := func(label string) {
		t.Helper()
		requireEpochIsLSN(t, label, st.LSN(), st)
		waitApplied(t, f, st.LSN())
		requireEpochIsLSN(t, label+" (follower)", f.ReplicaStats().AppliedLSN, f)
	}
	check("follower bootstrap")
	if r := f.MVCCStats().RestoreEpoch; r != 3 {
		t.Fatalf("follower restored at epoch %d, want the checkpoint's LSN 3", r)
	}

	if err := st.ApplyTransaction(&txns[3]); err != nil {
		t.Fatal(err)
	}
	check("ApplyTransaction")
	if _, err := st.ApplyBatch(context.Background(), txns[4:8]); err != nil {
		t.Fatal(err)
	}
	check("ApplyBatch")
	bad := db.Transaction{Label: "bad", Updates: []db.Update{db.Insert("R", db.Tuple{db.I(1)})}}
	if n, err := st.ApplyBatch(context.Background(), []db.Transaction{txns[8], bad, txns[9]}); err == nil || n != 1 {
		t.Fatalf("batch with a failing transaction: applied %d, %v", n, err)
	}
	check("ApplyBatch with a failing transaction")

	var tup db.Tuple
	var ann *core.Expr
	st.EachRow("R", func(tu db.Tuple, a *core.Expr) {
		if tup == nil {
			tup, ann = tu.Clone(), a
		}
	})
	if err := st.RestoreRow("R", tup, core.Sum(ann, core.Var(core.TupleAnnot("restored")))); err != nil {
		t.Fatal(err)
	}
	check("RestoreRow")
	if st.RestoreRow("nope", tup, ann) == nil || st.RestoreRow("R", tup[:2], ann) == nil {
		t.Fatal("an invalid restore succeeded")
	}
	check("RestoreRow failing")

	if _, err := st.MinimizeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	check("MinimizeAll")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.MinimizeAll(cancelled); err == nil {
		t.Fatal("a cancelled MinimizeAll succeeded")
	}
	check("MinimizeAll cancelled")

	for _, op := range []struct {
		label string
		do    func() error
		fails bool
	}{
		{"BuildIndex", func() error { return st.BuildIndex("R", "grp") }, false},
		{"BuildIndex of an index there", func() error { return st.BuildIndex("R", "grp") }, false},
		{"BuildIndex failing", func() error { return st.BuildIndex("R", "nope") }, true},
		{"DropIndex failing", func() error { return st.DropIndex("R", "cat") }, true},
		{"BuildIndex of a second index", func() error { return st.BuildIndex("R", "cat") }, false},
	} {
		if err := op.do(); (err != nil) != op.fails {
			t.Fatalf("%s: %v", op.label, err)
		}
		check(op.label)
	}
	// The checkpoint holds no index: the drop below replays on an engine
	// without the index, and still takes its epoch.
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.DropIndex("R", "grp"); err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyAll(context.Background(), txns[10:14]); err != nil {
		t.Fatal(err)
	}
	check("DropIndex")
	requireSameEpochs(t, "bootstrapped follower", st, f)

	// Resume: a clean restart recovers the follower's own checkpoint at
	// LSN 3 and its log, and streams on from its LSN.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyAll(context.Background(), txns[14:16]); err != nil {
		t.Fatal(err)
	}
	f = openTestFollower(t, fdir, src, wal.WithSync(wal.SyncNever))
	check("follower resume")
	if rs := f.ReplicaStats(); rs.Resyncs != 0 || rs.LagRecords != 0 {
		t.Fatalf("resumed follower: %+v", rs)
	}
	requireSameEpochs(t, "resumed follower", st, f)

	// The leader crashes and recovers from the checkpoint taken before the
	// drop, replaying the drop of an index it no longer has.
	st.Crash()
	st = open()
	lp.st.Store(st)
	defer st.Close()
	requireEpochIsLSN(t, "leader recovery", st.LSN(), st)
	if r := st.MVCCStats().RestoreEpoch; r != st.Stats().CheckpointLSN || r == 0 {
		t.Fatalf("leader restored at epoch %d, its checkpoint is at LSN %d", r, st.Stats().CheckpointLSN)
	}
	if err := st.ApplyTransaction(&txns[16]); err != nil {
		t.Fatal(err)
	}
	check("after leader recovery")
	requireSameEpochs(t, "recovered leader", st, f)

	// Resync: the follower's position is pruned while it is away, and it
	// reloads the leader's newest checkpoint.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for st.Stats().ActiveStreams != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := st.ApplyAll(context.Background(), txns[17:20]); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyAll(context.Background(), txns[20:22]); err != nil {
		t.Fatal(err)
	}
	f = openTestFollower(t, fdir, src, wal.WithSync(wal.SyncNever))
	check("follower resync")
	if rs := f.ReplicaStats(); rs.Resyncs != 1 || f.MVCCStats().RestoreEpoch != st.Stats().CheckpointLSN {
		t.Fatalf("resynced follower: %+v, restore epoch %d, leader checkpoint %d", rs, f.MVCCStats().RestoreEpoch, st.Stats().CheckpointLSN)
	}
	requireSameEpochs(t, "resynced follower", st, f)
}
