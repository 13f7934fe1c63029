package wal_test

import (
	"bytes"
	"context"
	"testing"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/provstore"
	"hyperprov/internal/tpcc"
	"hyperprov/internal/wal"
	"hyperprov/internal/workload"
)

var modes = []engine.Mode{engine.ModeNaive, engine.ModeNormalForm}

func modeName(m engine.Mode) string {
	if m == engine.ModeNaive {
		return "naive"
	}
	return "nf"
}

// smallWorkload is the shared differential workload: small enough to
// run hundreds of recoveries, large enough to cross segment and
// checkpoint boundaries.
func smallWorkload(t *testing.T) (*db.Database, []db.Transaction) {
	t.Helper()
	initial, txns, err := workload.Generate(workload.Config{
		Tuples: 300, Pool: 30, Group: 3, Updates: 150,
		QueriesPerTxn: 3, MergeRatio: 0.2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return initial, txns
}

// tinyWorkload is the fault-injection sweep workload: the sweep reruns
// it once per injection point, so it must be fast.
func tinyWorkload() (*db.Database, []db.Transaction, error) {
	return workload.Generate(workload.Config{
		Tuples: 120, Pool: 16, Group: 2, Updates: 60,
		QueriesPerTxn: 3, MergeRatio: 0.2, Seed: 13,
	})
}

func tpccWorkload(t *testing.T) (*db.Database, []db.Transaction) {
	t.Helper()
	g := tpcc.NewGenerator(tpcc.Scaled(0.01))
	initial, err := g.InitialDatabase()
	if err != nil {
		t.Fatal(err)
	}
	return initial, g.Transactions(60)
}

func snapshotOf(t *testing.T, e engine.Reader) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := provstore.SaveSnapshot(&buf, e); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oracleAt replays txns[:n] on a fresh in-memory engine — the
// never-crashed reference every recovery is compared against.
func oracleAt(t *testing.T, mode engine.Mode, initial *db.Database, txns []db.Transaction, n int) engine.DB {
	t.Helper()
	e := engine.Open(mode, initial)
	if err := e.ApplyAll(context.Background(), txns[:n]); err != nil {
		t.Fatalf("oracle apply: %v", err)
	}
	return e
}

func requireSameBytes(t *testing.T, label string, want, got []byte) {
	t.Helper()
	if !bytes.Equal(want, got) {
		t.Fatalf("%s: snapshot bytes differ (want %d bytes, got %d)", label, len(want), len(got))
	}
}

// TestCrashRecoveryDifferential is the tentpole acceptance test: for
// random and TPC-C workloads in both modes, a store crashed mid-workload
// recovers to exactly the state a never-crashed engine reaches with the
// recovered record prefix — byte-identical snapshots. (The shards=1
// suffix is the name the cases had when a sharded twin ran beside them.)
func TestCrashRecoveryDifferential(t *testing.T) {
	type load struct {
		name string
		gen  func(t *testing.T) (*db.Database, []db.Transaction)
	}
	loads := []load{{"random", smallWorkload}, {"tpcc", tpccWorkload}}
	for _, ld := range loads {
		for _, mode := range modes {
			t.Run(ld.name+"/"+modeName(mode)+"/shards=1", func(t *testing.T) {
				initial, txns := ld.gen(t)
				dir := t.TempDir()
				open := func() *wal.Store {
					st, err := wal.Open(dir,
						wal.WithMode(mode),
						wal.WithInitialDatabase(initial),
						wal.WithSync(wal.SyncAlways),
						wal.WithSegmentSize(4096),
						wal.WithCheckpointEvery(40),
					)
					if err != nil {
						t.Fatalf("open: %v", err)
					}
					return st
				}
				st := open()
				// First half through the batched path, then a crash
				// mid-way through the sequential path.
				half := len(txns) / 2
				if err := st.ApplyAll(context.Background(), txns[:half]); err != nil {
					t.Fatalf("ApplyAll: %v", err)
				}
				crashAt := half + (len(txns)-half)/2
				for i := half; i < crashAt; i++ {
					if err := st.ApplyTransaction(&txns[i]); err != nil {
						t.Fatalf("ApplyTransaction %d: %v", i, err)
					}
				}
				st.Crash()

				// Reopen without the bootstrap options: the data
				// directory alone recovers.
				re, err := wal.Open(dir, wal.WithSync(wal.SyncAlways), wal.WithSegmentSize(4096))
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				stats := re.Stats()
				if got := int(stats.LSN); got != crashAt {
					t.Fatalf("recovered LSN %d, want %d acked records", got, crashAt)
				}
				if !stats.Recovered {
					t.Fatalf("stats.Recovered = false after recovery")
				}
				oracle := oracleAt(t, mode, initial, txns, crashAt)
				requireSameBytes(t, "reopen", snapshotOf(t, oracle), snapshotOf(t, re))
				re.Crash()

				// Continue past the crash on a final reopen, close
				// cleanly, reopen once more: checkpoint + suffix.
				re = open()
				for i := crashAt; i < len(txns); i++ {
					if err := re.ApplyTransaction(&txns[i]); err != nil {
						t.Fatalf("ApplyTransaction %d after recovery: %v", i, err)
					}
				}
				if err := re.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
				final := open()
				defer final.Close()
				oracle = oracleAt(t, mode, initial, txns, len(txns))
				requireSameBytes(t, "final", snapshotOf(t, oracle), snapshotOf(t, final))
			})
		}
	}
}

// TestSyncPolicies exercises interval and never policies: a clean Close
// flushes everything regardless of policy, and a crash loses only a
// suffix — the recovered LSN is a prefix length and the state matches
// the oracle at that prefix.
func TestSyncPolicies(t *testing.T) {
	initial, txns := smallWorkload(t)
	for _, policy := range []wal.SyncPolicy{wal.SyncInterval, wal.SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			st, err := wal.Open(dir,
				wal.WithMode(engine.ModeNormalForm),
				wal.WithInitialDatabase(initial),
				wal.WithSync(policy),
				wal.WithSyncInterval(5e6), // 5ms
				wal.WithSegmentSize(4096),
			)
			if err != nil {
				t.Fatal(err)
			}
			crashAt := len(txns) / 2
			for i := 0; i < crashAt; i++ {
				if err := st.ApplyTransaction(&txns[i]); err != nil {
					t.Fatal(err)
				}
			}
			st.Crash()
			re, err := wal.Open(dir)
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			lsn := int(re.Stats().LSN)
			if lsn > crashAt {
				t.Fatalf("recovered %d records, only %d were written", lsn, crashAt)
			}
			oracle := oracleAt(t, engine.ModeNormalForm, initial, txns, lsn)
			requireSameBytes(t, "crash prefix", snapshotOf(t, oracle), snapshotOf(t, re))

			// Clean close from here must lose nothing.
			for i := lsn; i < len(txns); i++ {
				if err := re.ApplyTransaction(&txns[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			final, err := wal.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer final.Close()
			if got := int(final.Stats().LSN); got != len(txns) {
				t.Fatalf("after clean close recovered %d records, want %d", got, len(txns))
			}
			oracle = oracleAt(t, engine.ModeNormalForm, initial, txns, len(txns))
			requireSameBytes(t, "clean close", snapshotOf(t, oracle), snapshotOf(t, final))
		})
	}
}

// TestDurableMinimizeAndIndexes covers the non-transaction records:
// minimize passes change snapshot bytes and must replay; index builds
// must survive recovery.
func TestDurableMinimizeAndIndexes(t *testing.T) {
	initial, txns := smallWorkload(t)
	dir := t.TempDir()
	st, err := wal.Open(dir,
		wal.WithMode(engine.ModeNormalForm),
		wal.WithInitialDatabase(initial),
	)
	if err != nil {
		t.Fatal(err)
	}
	n1, n2 := len(txns)/2, len(txns)*3/4
	if err := st.ApplyAll(context.Background(), txns[:n1]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.MinimizeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st.BuildIndex("R", "grp"); err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyAll(context.Background(), txns[n1:n2]); err != nil {
		t.Fatal(err)
	}
	st.Crash()

	re, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	oracle := engine.Open(engine.ModeNormalForm, initial)
	if err := oracle.ApplyAll(context.Background(), txns[:n1]); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.MinimizeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := oracle.BuildIndex("R", "grp"); err != nil {
		t.Fatal(err)
	}
	if err := oracle.ApplyAll(context.Background(), txns[n1:n2]); err != nil {
		t.Fatal(err)
	}
	requireSameBytes(t, "minimize+index", snapshotOf(t, oracle), snapshotOf(t, re))
	infos := re.IndexStats()
	if len(infos) != 1 {
		t.Fatalf("recovered %d indexes, want 1", len(infos))
	}
}

// TestDurableRestoreRow checks the restore-row record round-trips the
// annotation through the expression codec.
func TestDurableRestoreRow(t *testing.T) {
	initial, txns := smallWorkload(t)
	dir := t.TempDir()
	st, err := wal.Open(dir,
		wal.WithMode(engine.ModeNormalForm),
		wal.WithInitialDatabase(initial),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyAll(context.Background(), txns[:20]); err != nil {
		t.Fatal(err)
	}
	// Grab a live row's annotation, perturb the row via restore.
	var rel string
	var tup db.Tuple
	var ann *core.Expr
	st.Rows(func(r string, tu db.Tuple, a *core.Expr) {
		if rel == "" {
			rel, tup, ann = r, tu, a
		}
	})
	if rel == "" {
		t.Fatal("no rows")
	}
	if err := st.RestoreRow(rel, tup, ann); err != nil {
		t.Fatal(err)
	}
	// Invalid restores are delegated unlogged and return engine errors.
	if err := st.RestoreRow("nope", tup, ann); err == nil {
		t.Fatal("restore into unknown relation succeeded")
	}
	st.Crash()

	re, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	oracle := oracleAt(t, engine.ModeNormalForm, initial, txns, 20)
	if err := oracle.RestoreRow(rel, tup, ann); err != nil {
		t.Fatal(err)
	}
	requireSameBytes(t, "restore", snapshotOf(t, oracle), snapshotOf(t, re))
}

// TestFailingChunkIsOneGroupCommit: a batch whose transaction k fails
// mid-way logs transactions 0..k — the failing one too, which replays to
// the same partial state and is counted as a failed replay — under one
// fsync, and a crash right after recovers the live engine's bytes. (The
// shards=1 subtest keeps the name it had beside a sharded twin.)
func TestFailingChunkIsOneGroupCommit(t *testing.T) {
	initial, txns := smallWorkload(t)
	const k = 9
	batch := append([]db.Transaction(nil), txns[:20]...)
	batch[k].Updates = append(append([]db.Update(nil), txns[k].Updates...),
		db.Update{Kind: db.OpDelete, Rel: "missing", Sel: db.Pattern{db.AnyVar("x")}})
	t.Run("shards=1", func(t *testing.T) {
		dir := t.TempDir()
		st, err := wal.Open(dir, wal.WithSync(wal.SyncAlways), wal.WithInitialDatabase(initial))
		if err != nil {
			t.Fatal(err)
		}
		before := st.Stats()
		applied, err := st.ApplyBatch(context.Background(), batch)
		if err == nil || applied != k {
			t.Fatalf("applied %d, err %v; want %d and the failing transaction's error", applied, err, k)
		}
		after := st.Stats()
		if syncs := after.Syncs - before.Syncs; syncs != 1 {
			t.Errorf("%d fsyncs for the failing chunk, want 1", syncs)
		}
		if recs := after.Appended - before.Appended; recs != k+1 {
			t.Errorf("%d records appended, want %d", recs, k+1)
		}
		want := snapshotOf(t, st)
		st.Crash()
		re, err := wal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		requireSameBytes(t, "recovered", want, snapshotOf(t, re))
		if n := re.Stats().ReplayFailed; n != 1 {
			t.Errorf("recovery counted %d failed replays, want the logged failing transaction", n)
		}
	})
}

// TestApplyErrorsAreDeterministic logs transactions that fail mid-way
// (unknown relation on the second update) and checks the partial state
// replays identically, with the engine's error text passed through.
func TestApplyErrorsAreDeterministic(t *testing.T) {
	initial, txns := smallWorkload(t)
	dir := t.TempDir()
	st, err := wal.Open(dir,
		wal.WithMode(engine.ModeNormalForm),
		wal.WithInitialDatabase(initial),
	)
	if err != nil {
		t.Fatal(err)
	}
	bad := db.Transaction{Label: "bad", Updates: []db.Update{
		txns[0].Updates[0],
		{Kind: db.OpDelete, Rel: "missing", Sel: db.Pattern{db.AnyVar("x")}},
	}}
	if err := st.ApplyTransaction(&bad); err == nil {
		t.Fatal("transaction on unknown relation succeeded")
	}
	// Batched path: a chunk containing the bad transaction falls back
	// to sequential apply, stopping at the error like engine.ApplyAll.
	batch := []db.Transaction{txns[1], bad, txns[2]}
	if err := st.ApplyAll(context.Background(), batch); err == nil {
		t.Fatal("batch with unknown relation succeeded")
	}
	st.Crash()

	re, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	oracle := engine.Open(engine.ModeNormalForm, initial)
	_ = oracle.ApplyTransaction(&bad)
	_ = oracle.ApplyTransaction(&txns[1])
	_ = oracle.ApplyTransaction(&bad)
	requireSameBytes(t, "failed txns", snapshotOf(t, oracle), snapshotOf(t, re))
}
