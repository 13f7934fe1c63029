package subscribe_test

// Protocol differential on the persistent readers: a manager bound to a
// wal.Store, and one bound to a wal.Follower whose commits arrive
// through the replication stream rather than local applies, must feed
// a client exactly the states a from-scratch recompute builds against
// the reader's own views.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"hyperprov/internal/engine"
	"hyperprov/internal/subscribe"
	"hyperprov/internal/wal"
)

// startLeaderStream serves st's replication stream over loopback HTTP
// and returns a StreamSource dialing it.
func startLeaderStream(t *testing.T, st *wal.Store) wal.StreamSource {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		from, err := strconv.ParseUint(req.URL.Query().Get("from"), 10, 64)
		if err != nil {
			http.Error(w, "bad from", http.StatusBadRequest)
			return
		}
		_ = st.ServeStream(req.Context(), w, from)
	}))
	t.Cleanup(ts.Close)
	return wal.HTTPSource(ts.URL, nil)
}

func waitFollowerLSN(t *testing.T, f *wal.Follower, lsn uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if f.ReplicaStats().AppliedLSN >= lsn {
			return
		}
		time.Sleep(time.Millisecond)
	}
	rs := f.ReplicaStats()
	t.Fatalf("follower stuck at LSN %d waiting for %d (last error %q)", rs.AppliedLSN, lsn, rs.LastError)
}

// TestProtocolOnStoreAndFollower applies a TPC-C history transaction by
// transaction on the leader and, after replication catches up each
// time, compares every subscription's client-side state — one client
// on the leader's store, one on the follower — to a from-scratch
// recompute against that reader's view.
func TestProtocolOnStoreAndFollower(t *testing.T) {
	initial, txns := subscribe.TPCCHistory(t, 0.002, 30)
	st, err := wal.Open(t.TempDir(),
		wal.WithMode(engine.ModeNormalForm),
		wal.WithInitialDatabase(initial),
		wal.WithSync(wal.SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	src := startLeaderStream(t, st)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f, err := wal.OpenFollower(ctx, t.TempDir(), src, wal.WithSync(wal.SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	specs := subscribe.TPCCMix(initial, txns)
	type client struct {
		d  engine.DB
		m  *subscribe.Manager
		c  *subscribe.Conn
		mi *mirror
	}
	var clients []client
	for _, d := range []engine.DB{st, f} {
		m := subscribe.NewManager(d)
		defer m.Close()
		cl := client{d, m, m.Attach(4), newMirror(t, d.Schema())}
		cl.mi.subscribeAll(m, cl.c, specs)
		clients = append(clients, cl)
	}

	for i := range txns {
		if err := st.ApplyTransaction(&txns[i]); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
		waitFollowerLSN(t, f, st.LSN())
		for _, cl := range clients {
			cl.mi.check(cl.m, cl.c, cl.d, specs, fmt.Sprintf("%T txn %d", cl.d, i))
		}
	}

	// The leader and follower states must also agree on the final
	// horizon (canonical bytes are engine-independent).
	for _, sp := range specs {
		if lw, fw := clients[0].mi.canonical(sp.ID), clients[1].mi.canonical(sp.ID); !bytes.Equal(lw, fw) {
			t.Fatalf("leader and follower disagree on %q:\n%svs\n%s", sp.ID, lw, fw)
		}
	}
}

// TestIndexEpochSendsNoFrame: an index build or drop between two commits
// of a store is an epoch of its own, its record's LSN + 1, and an empty
// one: no subscriber hears it. A watch on the store and one on its
// follower get the frames of an engine that ran the transactions alone,
// each delta at its transaction's epoch, the index ops' epochs skipped.
func TestIndexEpochSendsNoFrame(t *testing.T) {
	initial, txns := testWorkload(t, 5)
	st, err := wal.Open(t.TempDir(),
		wal.WithMode(engine.ModeNormalForm),
		wal.WithInitialDatabase(initial),
		wal.WithSync(wal.SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f, err := wal.OpenFollower(ctx, t.TempDir(), startLeaderStream(t, st), wal.WithSync(wal.SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	alone := engine.Open(engine.ModeNormalForm, initial)

	type watcher struct {
		m *subscribe.Manager
		c *subscribe.Conn
	}
	var ws []watcher
	for _, d := range []engine.DB{alone, st, f} {
		m := subscribe.NewManager(d)
		defer m.Close()
		c := m.Attach(16)
		if _, err := m.Subscribe(c, subscribe.Spec{ID: "w", Kind: subscribe.KindWatch, Rel: "R"}); err != nil {
			t.Fatal(err)
		}
		ws = append(ws, watcher{m, c})
	}
	// The store's records: txn 0 (LSN 0), build (1), txn 1 (2), drop (3),
	// txn 2 (4); the lone engine's epochs are 1, 2, 3.
	storeEpoch := []uint64{0, 1, 3, 5}
	for i, ddl := range []func() error{
		func() error { return st.BuildIndex("R", "grp") },
		func() error { return st.DropIndex("R", "grp") },
		func() error { return nil },
	} {
		if err := alone.ApplyTransaction(&txns[i]); err != nil {
			t.Fatal(err)
		}
		if err := st.ApplyTransaction(&txns[i]); err != nil {
			t.Fatal(err)
		}
		if err := ddl(); err != nil {
			t.Fatal(err)
		}
	}
	waitFollowerLSN(t, f, st.LSN())
	if st.LSN() != 5 || f.Horizon() != 5 {
		t.Fatalf("store LSN %d, follower horizon epoch %d, want 5", st.LSN(), f.Horizon())
	}
	frames := make([][]subscribe.Frame, len(ws))
	for i, w := range ws {
		w.m.Sync()
		for {
			raw, err := w.c.Next(subscribe.Polled)
			if err != nil {
				break
			}
			frames[i] = append(frames[i], checkWire(t, raw))
		}
	}
	if len(frames[0]) == 0 {
		t.Fatal("the transactions moved no watched row")
	}
	for i, name := range []string{"store", "follower"} {
		got := frames[i+1]
		if len(got) != len(frames[0]) {
			t.Fatalf("%s: %d frames, the lone engine's %d", name, len(got), len(frames[0]))
		}
		for j, want := range frames[0] {
			if want.Type != "delta" || got[j].Epoch != storeEpoch[want.Epoch] {
				t.Fatalf("%s frame %d: %s at epoch %d, the lone engine's %s at %d", name, j, got[j].Type, got[j].Epoch, want.Type, want.Epoch)
			}
			want.Epoch = got[j].Epoch
			if g, w := mustJSON(t, got[j]), mustJSON(t, want); !bytes.Equal(g, w) {
				t.Fatalf("%s frame %d differs:\n got %s\nwant %s", name, j, g, w)
			}
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
