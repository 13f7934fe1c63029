package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hyperprov/internal/engine"
	"hyperprov/internal/wal"
	"hyperprov/internal/workload"
)

// horizonEpoch reads mvccHorizonEpoch from a server's /v1/stats.
func horizonEpoch(t *testing.T, ts *httptest.Server) uint64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	return uint64(decode[map[string]any](t, resp)["mvccHorizonEpoch"].(float64))
}

// requireCompacted asserts that ?as_of=n answers 410 compacted.
func requireCompacted(t *testing.T, ts *httptest.Server, n uint64) {
	t.Helper()
	code, raw := getBytes(t, ts.Client(), ts.URL+"/v1/db?as_of="+itoa(n))
	if code != http.StatusGone || !strings.Contains(string(raw), `"code":"compacted"`) {
		t.Fatalf("as_of=%d below the restore epoch answered %d: %s", n, code, raw)
	}
}

// TestReadYourWritesThroughCheckpointBootstrap: a follower bootstrapped
// from a checkpoint at LSN 2 answers ?min_epoch= with the leader's
// mvccHorizonEpoch after a write once it has applied the write, never
// earlier, and the state it answers holds the write.
func TestReadYourWritesThroughCheckpointBootstrap(t *testing.T) {
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
	ingest := func(log string) {
		t.Helper()
		resp, err := leader.Client().Post(leader.URL+"/v1/ingest?syntax=sql", "text/plain", strings.NewReader(log))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Body.Close(); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest answered %d", resp.StatusCode)
		}
	}
	ingest(figure1Log)
	resp, err := leader.Client().Post(leader.URL+"/v1/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Body.Close(); resp.StatusCode != http.StatusOK || st.Stats().CheckpointLSN != 2 {
		t.Fatalf("checkpoint answered %d at LSN %d", resp.StatusCode, st.Stats().CheckpointLSN)
	}
	ingest("BEGIN w; UPDATE Products SET Price = 99 WHERE Product = 'Kids mnt bike' AND Category = 'Bicycles'; COMMIT;")
	write := horizonEpoch(t, leader)
	if write != 3 {
		t.Fatalf("the write's epoch is %d, want its LSN + 1, 3", write)
	}

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

	// Bootstrapped, the write not applied: the checkpoint's epoch is
	// there, the write's is not.
	if code, raw := getBytes(t, follower.Client(), follower.URL+"/v1/db?min_epoch="+itoa(write-1)); code != http.StatusOK {
		t.Fatalf("min_epoch of the checkpoint answered %d: %s", code, raw)
	}
	code, raw := getBytes(t, follower.Client(), follower.URL+"/v1/db?min_epoch="+itoa(write))
	if code != http.StatusServiceUnavailable || !strings.Contains(string(raw), codeReplicaLagging) {
		t.Fatalf("min_epoch of an unapplied write answered %d: %s", code, raw)
	}
	requireCompacted(t, follower, 1)

	gate.Release()
	waitFollowerLSN(t, f, st.Stats().LSN)
	code, got := getBytes(t, follower.Client(), follower.URL+"/v1/db?min_epoch="+itoa(write))
	if code != http.StatusOK {
		t.Fatalf("min_epoch of an applied write answered %d: %s", code, got)
	}
	if _, want := getBytes(t, leader.Client(), leader.URL+"/v1/db?as_of="+itoa(write)); string(got) != string(want) {
		t.Fatalf("the fenced read is not the state after the write:\nfollower %s\nleader   %s", got, want)
	}
}

// TestAsOfSameOnLeaderAndFollower: /v1/db?as_of=k answers the same bytes
// on leader and follower at every epoch both hold, after the follower's
// checkpoint bootstrap, a restart and a resync; an epoch below a
// restored engine's restore epoch answers 410 compacted, on the
// bootstrapped follower and on a restarted leader.
func TestAsOfSameOnLeaderAndFollower(t *testing.T) {
	initial, txns, err := workload.Generate(workload.Config{
		Tuples: 60, Pool: 10, Group: 2, Updates: 90,
		QueriesPerTxn: 2, MergeRatio: 0.2, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	ldir := t.TempDir()
	var st *wal.Store
	var leader *httptest.Server
	openLeader := func() {
		t.Helper()
		if st, err = wal.Open(ldir,
			wal.WithMode(engine.ModeNormalForm),
			wal.WithInitialDatabase(initial),
			wal.WithSync(wal.SyncNever),
			wal.WithHeartbeatEvery(20*time.Millisecond),
		); err != nil {
			t.Fatal(err)
		}
		leader = httptest.NewServer(New(st, WithLogf(t.Logf)).Handler())
	}
	openLeader()
	defer func() { leader.Close(); st.Close() }()
	apply := func(from, to int) {
		t.Helper()
		if err := st.ApplyAll(context.Background(), txns[from:to]); err != nil {
			t.Fatal(err)
		}
	}
	apply(0, 10)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	apply(10, 20)

	fdir := t.TempDir()
	var f *wal.Follower
	var follower *httptest.Server
	openFollower := func() {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if f, err = wal.OpenFollower(ctx, fdir, wal.HTTPSource(leader.URL, nil), wal.WithSync(wal.SyncNever)); err != nil {
			t.Fatal(err)
		}
		follower = httptest.NewServer(New(f, WithLogf(t.Logf)).Handler())
		waitFollowerLSN(t, f, st.Stats().LSN)
	}
	closeFollower := func() {
		t.Helper()
		follower.Close()
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	compare := func(label string) {
		t.Helper()
		h := horizonEpoch(t, leader)
		if fh := horizonEpoch(t, follower); fh != h || h != st.Stats().LSN {
			t.Fatalf("%s: follower horizon epoch %d, leader's %d, leader LSN %d", label, fh, h, st.Stats().LSN)
		}
		from := max(st.MVCCStats().RestoreEpoch, f.MVCCStats().RestoreEpoch)
		for k := from; k <= h; k++ {
			lc, lraw := getBytes(t, leader.Client(), leader.URL+"/v1/db?as_of="+itoa(k))
			fc, fraw := getBytes(t, follower.Client(), follower.URL+"/v1/db?as_of="+itoa(k))
			if lc != http.StatusOK || fc != http.StatusOK || string(lraw) != string(fraw) {
				t.Fatalf("%s: as_of=%d differs (%d, %d):\nleader   %s\nfollower %s", label, k, lc, fc, lraw, fraw)
			}
		}
	}

	openFollower()
	if r := f.MVCCStats().RestoreEpoch; r != 10 {
		t.Fatalf("follower restored at epoch %d, want the checkpoint's LSN 10", r)
	}
	requireCompacted(t, follower, 9)
	compare("bootstrapped follower")

	closeFollower()
	apply(20, 25)
	openFollower()
	if rs := f.ReplicaStats(); rs.Resyncs != 0 {
		t.Fatalf("restarted follower resynced: %+v", rs)
	}
	compare("restarted follower")

	closeFollower()
	deadline := time.Now().Add(10 * time.Second)
	for st.Stats().ActiveStreams != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	apply(25, 30)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	apply(30, 35)
	openFollower()
	if rs := f.ReplicaStats(); rs.Resyncs != 1 || f.MVCCStats().RestoreEpoch != 30 {
		t.Fatalf("resynced follower: %+v, restore epoch %d", rs, f.MVCCStats().RestoreEpoch)
	}
	requireCompacted(t, follower, 29)
	compare("resynced follower")
	closeFollower()

	// A restarted leader holds the epochs from its newest checkpoint on.
	leader.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	openLeader()
	if r := st.MVCCStats().RestoreEpoch; r != 30 {
		t.Fatalf("restarted leader restored at epoch %d, want its checkpoint's LSN 30", r)
	}
	requireCompacted(t, leader, 0)
	requireCompacted(t, leader, 29)
	apply(35, 40)
	openFollower()
	defer closeFollower()
	compare("restarted leader")
}
