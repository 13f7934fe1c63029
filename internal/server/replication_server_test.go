package server

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/wal"
	"hyperprov/internal/workload"
)

// startLeaderPair opens a persistent leader over the figure-1 database,
// serves it over HTTP, and returns the leader server plus a follower
// replicating from it (also served over HTTP).
func startLeaderPair(t *testing.T) (leader *httptest.Server, st *wal.Store, follower *httptest.Server, f *wal.Follower) {
	t.Helper()
	return startLeaderPairOn(t, figure1Database(t))
}

// startLeaderPairOn is startLeaderPair over any initial database.
func startLeaderPairOn(t *testing.T, initial *db.Database) (leader *httptest.Server, st *wal.Store, follower *httptest.Server, f *wal.Follower) {
	t.Helper()
	st, err := wal.Open(t.TempDir(),
		wal.WithMode(engine.ModeNormalForm),
		wal.WithInitialDatabase(initial),
		wal.WithHeartbeatEvery(20*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	leader = httptest.NewServer(New(st, WithLogf(t.Logf)).Handler())
	t.Cleanup(leader.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f, err = wal.OpenFollower(ctx, t.TempDir(), wal.HTTPSource(leader.URL, nil), wal.WithSync(wal.SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	follower = httptest.NewServer(New(f, WithLogf(t.Logf)).Handler())
	t.Cleanup(follower.Close)
	return leader, st, follower, f
}

// waitFollowerLSN polls until the follower's applied LSN reaches n.
func waitFollowerLSN(t *testing.T, f *wal.Follower, n uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if f.ReplicaStats().AppliedLSN >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("follower stuck at LSN %d waiting for %d", f.ReplicaStats().AppliedLSN, n)
}

// TestReplicationServerDifferential drives writes through the leader's
// HTTP API and checks the follower's HTTP read surface answers
// byte-identically once caught up: /v1/db, what-if endpoints, and the
// replication sections of /readyz and /v1/stats.
func TestReplicationServerDifferential(t *testing.T) {
	leader, st, follower, f := startLeaderPair(t)

	resp, err := leader.Client().Post(leader.URL+"/v1/ingest?syntax=sql", "text/plain", strings.NewReader(figure1Log))
	if err != nil {
		t.Fatal(err)
	}
	if ing := decode[map[string]int](t, resp); ing["transactions"] != 2 {
		t.Fatalf("ingest reported %v", ing)
	}
	waitFollowerLSN(t, f, st.Stats().LSN)

	// Identical live database over HTTP.
	code, lraw := getBytes(t, leader.Client(), leader.URL+"/v1/db")
	if code != http.StatusOK {
		t.Fatalf("leader /v1/db: %d", code)
	}
	code, fraw := getBytes(t, follower.Client(), follower.URL+"/v1/db")
	if code != http.StatusOK {
		t.Fatalf("follower /v1/db: %d", code)
	}
	if string(lraw) != string(fraw) {
		t.Fatalf("live DB differs:\nleader   %s\nfollower %s", lraw, fraw)
	}

	// What-ifs run on the follower's replica state and agree with the
	// leader's answers.
	for _, ep := range []struct {
		path string
		body any
	}{
		{"/v1/whatif/deletion", deletionRequest{Tuples: []string{"p3"}}},
		{"/v1/whatif/abort", abortRequest{Labels: []string{"p"}}},
	} {
		lgot := decode[any](t, postJSON(t, leader.Client(), leader.URL+ep.path, ep.body))
		fgot := decode[any](t, postJSON(t, follower.Client(), follower.URL+ep.path, ep.body))
		if !reflect.DeepEqual(lgot, fgot) {
			t.Fatalf("%s differs between leader and follower:\nleader   %v\nfollower %v", ep.path, lgot, fgot)
		}
	}

	// Annotation lookups agree.
	req := annotationRequest{Rel: "Products", Tuple: []any{"Kids mnt bike", "Bicycles", 120}}
	la := decode[annotationResponse](t, postJSON(t, leader.Client(), leader.URL+"/v1/annotation", req))
	fa := decode[annotationResponse](t, postJSON(t, follower.Client(), follower.URL+"/v1/annotation", req))
	if !la.Found || la.Annotation != fa.Annotation {
		t.Fatalf("annotation differs: leader %+v, follower %+v", la, fa)
	}

	// A caught-up follower is ready and reports its lag.
	resp, err = follower.Client().Get(follower.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready := decode[map[string]any](t, resp)
	if resp.StatusCode != http.StatusOK || ready["ok"] != true || ready["follower"] != true {
		t.Fatalf("follower readyz: %d %v", resp.StatusCode, ready)
	}
	if _, ok := ready["lag"].(map[string]any); !ok {
		t.Fatalf("follower readyz has no lag section: %v", ready)
	}

	// /v1/stats carries the replication section on the follower only.
	stats := decode[map[string]any](t, mustGet(t, follower.Client(), follower.URL+"/v1/stats"))
	if stats["replication"] == nil {
		t.Fatalf("follower stats has no replication section: %v", stats)
	}
	lstats := decode[map[string]any](t, mustGet(t, leader.Client(), leader.URL+"/v1/stats"))
	if lstats["replication"] != nil {
		t.Fatalf("leader stats has a replication section: %v", lstats["replication"])
	}
}

// TestStatsShapePinned pins the key sets of the replication and wal
// blocks of /v1/stats, on a follower and on a leader. Stats names are
// API: removing or renaming one has to edit these lists on purpose.
// Keys marked optional are omitted when empty.
func TestStatsShapePinned(t *testing.T) {
	leader, st, follower, f := startLeaderPair(t)
	waitFollowerLSN(t, f, st.Stats().LSN)
	walKeys := []string{
		"dir", "sync", "lsn", "checkpoint_lsn", "appended", "syncs",
		"checkpoints", "checkpoint_failures", "recovered", "replayed_records",
		"replayFailed", "truncated_tail_bytes", "read_only", "read_only_cause?",
		"checkpointLastMs", "checkpointLastBytes", "checkpointTotalMs",
		"checkpointHeldMs", "checkpointsSkipped", "active_streams",
		"stream_fence_lsn", "streams_served", "resyncs_served",
	}
	replicationKeys := []string{
		"ready", "applied_lsn", "leader_lsn", "lag_records",
		"sync_target", "reconnects", "resyncs",
		"records_applied", "stalls", "last_error?",
	}
	check := func(who, block string, stats map[string]any, want []string) {
		t.Helper()
		got, ok := stats[block].(map[string]any)
		if !ok {
			t.Fatalf("%s stats has no %s block: %v", who, block, stats)
		}
		for _, k := range want {
			name, optional := strings.CutSuffix(k, "?")
			if _, ok := got[name]; !ok && !optional {
				t.Errorf("%s %s block lacks %q", who, block, name)
			}
			delete(got, name)
		}
		for k := range got {
			t.Errorf("%s %s block has unlisted key %q", who, block, k)
		}
	}
	fstats := decode[map[string]any](t, mustGet(t, follower.Client(), follower.URL+"/v1/stats"))
	check("follower", "replication", fstats, replicationKeys)
	check("follower", "wal", fstats, walKeys)
	lstats := decode[map[string]any](t, mustGet(t, leader.Client(), leader.URL+"/v1/stats"))
	check("leader", "wal", lstats, walKeys)
}

// TestFollowerWriteRejection: every mutating endpoint on a follower
// answers 403 with code follower; the read surface keeps working.
func TestFollowerWriteRejection(t *testing.T) {
	leader, st, follower, f := startLeaderPair(t)
	resp, err := leader.Client().Post(leader.URL+"/v1/ingest?syntax=sql", "text/plain", strings.NewReader(figure1Log))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitFollowerLSN(t, f, st.Stats().LSN)
	before := f.ReplicaStats().AppliedLSN

	cases := []struct {
		name string
		do   func() *http.Response
	}{
		{"ingest", func() *http.Response {
			resp, err := follower.Client().Post(follower.URL+"/v1/ingest?syntax=sql", "text/plain", strings.NewReader(figure1Log))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}},
		{"checkpoint", func() *http.Response {
			resp, err := follower.Client().Post(follower.URL+"/v1/checkpoint", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}},
		{"snapshot load", func() *http.Response {
			resp, err := follower.Client().Post(follower.URL+"/v1/snapshot", "application/octet-stream", strings.NewReader("x"))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}},
		{"index build", func() *http.Response {
			return postJSON(t, follower.Client(), follower.URL+"/v1/indexes", indexRequest{Rel: "Products", Attr: "Category"})
		}},
	}
	for _, c := range cases {
		resp := c.do()
		er := decode[errorResponse](t, resp)
		if resp.StatusCode != http.StatusForbidden || er.Error.Code != codeFollower {
			t.Errorf("%s on follower: status %d code %q, want 403 %q", c.name, resp.StatusCode, er.Error.Code, codeFollower)
		}
	}
	if got := f.ReplicaStats().AppliedLSN; got != before {
		t.Fatalf("rejected writes moved the follower LSN %d -> %d", before, got)
	}
	if code, _ := getBytes(t, follower.Client(), follower.URL+"/v1/db"); code != http.StatusOK {
		t.Fatalf("follower reads broken after rejected writes: %d", code)
	}
}

// TestReplicationStreamEndpointErrors: the stream endpoint needs a
// persistent leader (409 not_persistent on an in-memory engine, and a
// follower is not a leader either) and a well-formed ?from= (400).
func TestReplicationStreamEndpointErrors(t *testing.T) {
	mem := httptest.NewServer(New(figure1Engine(t, engine.ModeNormalForm)).Handler())
	defer mem.Close()
	resp, err := mem.Client().Get(mem.URL + "/v1/replication/stream")
	if err != nil {
		t.Fatal(err)
	}
	if er := decode[errorResponse](t, resp); resp.StatusCode != http.StatusConflict || er.Error.Code != codeNotPersistent {
		t.Fatalf("stream on in-memory engine: %d %+v, want 409 not_persistent", resp.StatusCode, er.Error)
	}

	st, err := wal.Open(t.TempDir(), wal.WithMode(engine.ModeNormalForm), wal.WithInitialDatabase(figure1Database(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	leader := httptest.NewServer(New(st).Handler())
	defer leader.Close()
	resp, err = leader.Client().Get(leader.URL + "/v1/replication/stream?from=banana")
	if err != nil {
		t.Fatal(err)
	}
	if er := decode[errorResponse](t, resp); resp.StatusCode != http.StatusBadRequest || er.Error.Code != codeBadRequest {
		t.Fatalf("bad from parameter: %d %+v, want 400 bad_request", resp.StatusCode, er.Error)
	}
}

// TestDrainStreamsUnblocksShutdown reproduces the deployment shutdown
// path: graceful http.Server.Shutdown on a leader with an attached
// follower must complete promptly once DrainStreams cuts the stream.
// Without the drain, Shutdown waits on the never-ending stream response
// until its context deadline and the process exits uncleanly.
func TestDrainStreamsUnblocksShutdown(t *testing.T) {
	st, err := wal.Open(t.TempDir(),
		wal.WithMode(engine.ModeNormalForm),
		wal.WithInitialDatabase(figure1Database(t)),
		wal.WithHeartbeatEvery(20*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := New(st, WithLogf(t.Logf))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	f, err := wal.OpenFollower(ctx, t.TempDir(),
		wal.HTTPSource("http://"+ln.Addr().String(), nil), wal.WithSync(wal.SyncNever))
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for deadline := time.Now().Add(10 * time.Second); st.Stats().ActiveStreams == 0; {
		if time.Now().After(deadline) {
			t.Fatal("follower stream never attached")
		}
		time.Sleep(2 * time.Millisecond)
	}

	srv.DrainStreams()
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShutdown()
	start := time.Now()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown after DrainStreams: %v (waited %v)", err, time.Since(start))
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("serve returned %v, want ErrServerClosed", err)
	}
}

// gatedSource forwards the replication stream frame-by-frame up to and
// including the checkpoint-done marker (message type 3), then stalls
// until Release — freezing a follower exactly at "bootstrapped but not
// caught up" so tests can observe the syncing window deterministically.
type gatedSource struct {
	src     wal.StreamSource
	mu      sync.Mutex
	release chan struct{}
	first   bool
}

func newGatedSource(src wal.StreamSource) *gatedSource {
	return &gatedSource{src: src, release: make(chan struct{})}
}

func (g *gatedSource) Release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case <-g.release:
	default:
		close(g.release)
	}
}

func (g *gatedSource) dial(ctx context.Context, from uint64) (io.ReadCloser, error) {
	rc, err := g.src(ctx, from)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.first {
		return rc, nil
	}
	g.first = true
	return &gatedReader{rc: rc, ctx: ctx, release: g.release}, nil
}

// gatedReader hands out whole frames until it has forwarded the
// msgCkptDone frame, then blocks on release before passing through.
// The block respects the dial context so the follower can still tear
// the session down while gated.
type gatedReader struct {
	rc      io.ReadCloser
	ctx     context.Context
	release chan struct{}
	pending []byte
	passed  bool
	open    bool
}

func (g *gatedReader) Read(p []byte) (int, error) {
	if len(g.pending) == 0 && g.passed && !g.open {
		select {
		case <-g.release:
			g.open = true
		case <-g.ctx.Done():
			return 0, g.ctx.Err()
		}
	}
	if len(g.pending) == 0 && !g.open {
		// Pull one whole frame: 8-byte header (length LE32 + CRC32), then
		// the payload whose first byte is the message type.
		var hdr [8]byte
		if _, err := io.ReadFull(g.rc, hdr[:]); err != nil {
			return 0, err
		}
		length := binary.LittleEndian.Uint32(hdr[:4])
		payload := make([]byte, length)
		if _, err := io.ReadFull(g.rc, payload); err != nil {
			return 0, err
		}
		if length > 0 && payload[0] == 3 { // msgCkptDone
			g.passed = true
		}
		g.pending = append(hdr[:], payload...)
	}
	if len(g.pending) > 0 {
		n := copy(p, g.pending)
		g.pending = g.pending[n:]
		return n, nil
	}
	return g.rc.Read(p)
}

func (g *gatedReader) Close() error { return g.rc.Close() }

// TestFollowerReadyzSyncing is the regression test for the readiness
// gap: a follower that bootstrapped from a checkpoint but has not yet
// replayed up to the leader LSN announced at handshake must answer 503
// syncing — with its current lag — and flip to 200 only after catch-up.
func TestFollowerReadyzSyncing(t *testing.T) {
	st, err := wal.Open(t.TempDir(),
		wal.WithMode(engine.ModeNormalForm),
		wal.WithInitialDatabase(figure1Database(t)),
		wal.WithHeartbeatEvery(20*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	leader := httptest.NewServer(New(st, WithLogf(t.Logf)).Handler())
	defer leader.Close()
	// Records beyond the bootstrap checkpoint: the follower's initial
	// sync target (the leader LSN at handshake) sits past what the
	// shipped checkpoint alone provides.
	resp, err := leader.Client().Post(leader.URL+"/v1/ingest?syntax=sql", "text/plain", strings.NewReader(figure1Log))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	gate := newGatedSource(wal.HTTPSource(leader.URL, nil))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f, err := wal.OpenFollower(ctx, t.TempDir(), gate.dial, wal.WithSync(wal.SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	follower := httptest.NewServer(New(f, WithLogf(t.Logf)).Handler())
	defer follower.Close()

	resp, err = follower.Client().Get(follower.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body := decode[map[string]any](t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("syncing follower readyz answered %d (%v), want 503", resp.StatusCode, body)
	}
	er, _ := body["error"].(map[string]any)
	if er["code"] != codeSyncing {
		t.Fatalf("syncing follower error %v, want code %q", body["error"], codeSyncing)
	}
	lag, _ := body["lag"].(map[string]any)
	if lag == nil || lag["records"].(float64) <= 0 || len(lag) != 1 {
		t.Fatalf("syncing follower reports no lag: %v", body)
	}

	// min_epoch fencing while lagging: a client that observed the
	// leader's horizon must not read older replica state.
	code, raw := getBytes(t, follower.Client(), follower.URL+"/v1/db?min_epoch=banana")
	if code != http.StatusBadRequest {
		t.Fatalf("bogus min_epoch answered %d: %s", code, raw)
	}
	// A record's epoch is its LSN + 1 on leader and follower alike: the
	// fence is the leader's horizon epoch, which a client that wrote
	// there observed, and the lag in records is the lag in epochs.
	rs := f.ReplicaStats()
	if rs.LagRecords == 0 || rs.LagRecords != rs.LeaderLSN-rs.AppliedLSN {
		t.Fatalf("gated follower reports no lag, or one in another unit: %+v", rs)
	}
	fence := st.MVCCStats().HorizonEpoch
	start := time.Now()
	code, raw = getBytes(t, follower.Client(), follower.URL+"/v1/db?min_epoch="+itoa(fence))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("fenced read on lagging follower answered %d: %s", code, raw)
	}
	if strings.Contains(string(raw), codeReplicaLagging) == false {
		t.Fatalf("fenced read error %s, want code %q", raw, codeReplicaLagging)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("fenced read blocked %v, want a bounded wait", waited)
	}

	// Release the stream: the follower catches up, flips ready, and the
	// fence is satisfiable.
	gate.Release()
	waitFollowerLSN(t, f, st.Stats().LSN)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err = follower.Client().Get(follower.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		body = decode[map[string]any](t, resp)
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never became ready: %d %v", resp.StatusCode, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if body["follower"] != true || body["ok"] != true {
		t.Fatalf("ready follower body: %v", body)
	}
	// The caught-up follower satisfies the fence that was unreachable
	// while it lagged.
	if code, raw := getBytes(t, follower.Client(), follower.URL+"/v1/db?min_epoch="+itoa(fence)); code != http.StatusOK {
		t.Fatalf("satisfied fence answered %d: %s", code, raw)
	}
}

// TestServeFollowerWhileReplicating is the follower leg of the race
// matrix: readers hammer every follower endpoint over HTTP while the
// leader commits a workload that streams in live underneath them.
// Afterwards the follower's served database must equal the leader's.
func TestServeFollowerWhileReplicating(t *testing.T) {
	initial, txns, err := workload.Generate(workload.Config{
		Tuples: 200, Pool: 20, Group: 2, Updates: 80,
		QueriesPerTxn: 2, MergeRatio: 0.2, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := wal.Open(t.TempDir(),
		wal.WithMode(engine.ModeNormalForm),
		wal.WithInitialDatabase(initial),
		wal.WithSync(wal.SyncNever),
		wal.WithHeartbeatEvery(10*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	leader := httptest.NewServer(New(st, WithLogf(t.Logf)).Handler())
	defer leader.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	f, err := wal.OpenFollower(ctx, t.TempDir(), wal.HTTPSource(leader.URL, nil), wal.WithSync(wal.SyncNever))
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	follower := httptest.NewServer(New(f, WithLogf(t.Logf)).Handler())
	defer follower.Close()
	client := follower.Client()

	done := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					fn()
				}
			}
		}()
	}
	drain := func(path string) {
		resp, err := client.Get(follower.URL + path)
		if err != nil {
			t.Error(err)
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	reader(func() { drain("/v1/db") })
	reader(func() { drain("/v1/stats") })
	reader(func() { drain("/readyz") })
	reader(func() { drain("/v1/snapshot") })
	reader(func() {
		resp := postJSON(t, client, follower.URL+"/v1/whatif/abort", abortRequest{Labels: []string{txns[0].Label}})
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	})

	for i := range txns {
		if err := st.ApplyTransaction(&txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	waitFollowerLSN(t, f, st.Stats().LSN)
	close(done)
	wg.Wait()

	_, lraw := getBytes(t, leader.Client(), leader.URL+"/v1/db")
	_, fraw := getBytes(t, client, follower.URL+"/v1/db")
	if string(lraw) != string(fraw) {
		t.Fatal("follower /v1/db differs from leader after concurrent replication")
	}
}

func itoa(n uint64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
