package hyperprov_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"hyperprov"
	"hyperprov/internal/engine"
	"hyperprov/internal/workload"
)

// TestFacadeDurableStore drives the persistent store through the public
// facade: bootstrap from an initial database, apply a log, crash-free
// close, reopen and verify the state — then check the typed errors are
// reachable.
func TestFacadeDurableStore(t *testing.T) {
	dir := t.TempDir()
	st, err := hyperprov.OpenDir(dir,
		hyperprov.WithMode(hyperprov.ModeNormalForm),
		hyperprov.WithInitialDatabase(exampleDB(t)),
		hyperprov.WithSync(hyperprov.SyncAlways),
	)
	if err != nil {
		t.Fatal(err)
	}
	txns, err := hyperprov.ParseSQLLog(st.Schema(), `
BEGIN p;
UPDATE Products SET Category = 'Bicycles' WHERE Product = 'Kids mnt bike';
COMMIT;
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	wantRows := st.NumRows()

	// A second open while the first holds the directory must fail typed.
	if _, err := hyperprov.OpenDir(dir); !errors.Is(err, hyperprov.ErrLocked) {
		t.Fatalf("concurrent open: err = %v, want ErrLocked", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyTransaction(&txns[0]); !errors.Is(err, hyperprov.ErrClosed) {
		t.Fatalf("write after close: err = %v, want ErrClosed", err)
	}

	re, err := hyperprov.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumRows() != wantRows {
		t.Fatalf("reopened store has %d rows, want %d", re.NumRows(), wantRows)
	}
	if got := re.Stats().LSN; got != 1 {
		t.Fatalf("reopened store at LSN %d, want 1", got)
	}
	var pol hyperprov.SyncPolicy
	if pol, err = hyperprov.ParseSyncPolicy("interval"); err != nil || pol != hyperprov.SyncInterval {
		t.Fatalf("ParseSyncPolicy(interval) = %v, %v", pol, err)
	}
}

// TestWithShardsIsInert: engine.WithShards is deprecated and sets
// nothing. An engine given WithShards(8) — directly or through a store's
// engine options — saves the bytes of one built without it at
// every epoch, and the Options() it reports rebuild an engine that
// behaves as the plain one's do (here: the index advisor it was given).
// Two engines built independently from one input and log saving the same
// bytes is also the construction half of snapshot determinism;
// internal/provstore's TestSnapshotBytesDeterministic holds the other.
func TestWithShardsIsInert(t *testing.T) {
	cfg := workload.Default(0.002)
	cfg.QueriesPerTxn = 5
	initial, txns, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := func(r hyperprov.Reader) []byte {
		var buf bytes.Buffer
		if err := hyperprov.SaveSnapshot(&buf, r); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ctx := context.Background()
	for _, mode := range []hyperprov.Mode{hyperprov.ModeNaive, hyperprov.ModeNormalForm} {
		build := func(opts ...hyperprov.Option) *hyperprov.Engine {
			e := hyperprov.New(mode, initial, opts...)
			if err := e.ApplyAll(ctx, txns); err != nil {
				t.Fatal(err)
			}
			return e
		}
		plain := build(hyperprov.WithAutoIndex(2))
		rebuiltPlain := build(plain.Options()...)
		if len(rebuiltPlain.IndexStats()) == 0 {
			t.Fatalf("%v: the workload builds no index, so Options() is not exercised", mode)
		}
		e := build(hyperprov.WithAutoIndex(2), engine.WithShards(8))
		for k := uint64(0); k <= plain.Horizon(); k++ {
			if !bytes.Equal(snap(plain.At(k)), snap(e.At(k))) {
				t.Fatalf("%v: epoch %d saves other bytes than without the option", mode, k)
			}
		}
		rebuilt := build(e.Options()...)
		if !reflect.DeepEqual(rebuilt.IndexStats(), rebuiltPlain.IndexStats()) || rebuilt.PlannerStats() != rebuiltPlain.PlannerStats() {
			t.Fatalf("%v: an engine built from its Options() plans otherwise than one built from the plain engine's", mode)
		}
		st, err := hyperprov.OpenDir(t.TempDir(), hyperprov.WithMode(mode), hyperprov.WithInitialDatabase(initial),
			hyperprov.WithEngineOptions(hyperprov.WithAutoIndex(2), engine.WithShards(8)), hyperprov.WithSync(hyperprov.SyncNever))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.ApplyAll(ctx, txns); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap(st), snap(plain)) || !reflect.DeepEqual(st.IndexStats(), plain.IndexStats()) {
			t.Fatalf("%v: a store given the option differs from the plain engine", mode)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
