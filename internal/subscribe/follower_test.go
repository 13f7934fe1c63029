package subscribe_test

// Protocol differential on the persistent readers: a manager bound to a
// wal.Store, and one bound to a wal.Follower whose commits arrive
// through the replication stream rather than local applies, must feed
// a client exactly the states a from-scratch recompute builds against
// the reader's own views.

import (
	"bytes"
	"context"
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
