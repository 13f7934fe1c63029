package wal

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"hyperprov/internal/engine"
	"hyperprov/internal/workload"
)

// TestFollowerClosesWhateverItsSourceDoes: a source whose reader ignores
// the session's context — a pipe that goes silent after the hello and is
// never closed by its writer — does not hold Follower.Close, even with the
// stall timeout off: the session ends its blocked read by closing the
// transport.
func TestFollowerClosesWhateverItsSourceDoes(t *testing.T) {
	pr, pw := io.Pipe()
	defer pw.Close()
	go func() {
		fw := &frameWriter{w: pw}
		_ = fw.writeMsg(encodeHello(helloMsg{mode: engine.ModeNormalForm, schema: workload.Schema()}))
	}()
	src := func(context.Context, uint64) (io.ReadCloser, error) { return pr, nil }
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f, err := OpenFollower(ctx, t.TempDir(), src, WithStreamStallTimeout(0))
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- f.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Follower.Close is still waiting a second after it was called")
	}
}

// TestFollowerStallCoversTheOpen: a link that accepts the connection and
// never answers the headers is as silent as a stream that stops between
// frames. The stall timer ends the open, counts a stall and the follower
// redials; the second request is answered and the follower bootstraps.
func TestFollowerStallCoversTheOpen(t *testing.T) {
	initial, _, err := workload.GeneratePinned(workload.Config{
		Tuples: 40, Pool: 10, Group: 2, Updates: 1, QueriesPerTxn: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(t.TempDir(), WithInitialDatabase(initial), WithSync(SyncNever),
		WithHeartbeatEvery(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var requests atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if requests.Add(1) == 1 {
			<-req.Context().Done() // accepted, never answered
			return
		}
		from, _ := strconv.ParseUint(req.URL.Query().Get("from"), 10, 64)
		_ = st.ServeStream(req.Context(), w, from)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	f, err := OpenFollower(ctx, t.TempDir(), HTTPSource(ts.URL, nil), WithSync(SyncNever),
		WithStreamStallTimeout(200*time.Millisecond), WithRedialBackoff(time.Millisecond, 5*time.Millisecond))
	if err != nil {
		t.Fatalf("OpenFollower after %v and %d requests: %v", time.Since(start), requests.Load(), err)
	}
	defer f.Close()
	if rs := f.ReplicaStats(); rs.Stalls == 0 || requests.Load() < 2 {
		t.Fatalf("bootstrapped with %d stalls after %d requests, want the unanswered open counted as a stall and redialed",
			rs.Stalls, requests.Load())
	}
}
