package wal_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/iofault"
	"hyperprov/internal/wal"
	"hyperprov/internal/workload"
)

// pinnedWorkload generates the fully pinned update sequence (every
// selection names one concrete live tuple), the planner's point lookup.
func pinnedWorkload(t *testing.T) (*db.Database, []db.Transaction) {
	t.Helper()
	initial, txns, err := workload.GeneratePinned(workload.Config{
		Tuples: 300, Pool: 30, Group: 3, Updates: 150,
		QueriesPerTxn: 3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return initial, txns
}

// leaderProxy serves a store's replication stream over HTTP, the same
// transport production followers use. The store pointer is swappable so
// fault tests can crash and reopen the leader behind a stable URL.
type leaderProxy struct {
	st atomic.Pointer[wal.Store]
}

func (lp *leaderProxy) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	from, err := strconv.ParseUint(req.URL.Query().Get("from"), 10, 64)
	if err != nil {
		http.Error(w, "bad from", http.StatusBadRequest)
		return
	}
	_ = lp.st.Load().ServeStream(req.Context(), w, from)
}

// startLeaderServer exposes st's replication stream on a loopback HTTP
// server and returns the swappable proxy plus a StreamSource dialing it.
func startLeaderServer(t *testing.T, st *wal.Store) (*leaderProxy, wal.StreamSource) {
	t.Helper()
	lp := &leaderProxy{}
	lp.st.Store(st)
	ts := httptest.NewServer(lp)
	t.Cleanup(ts.Close)
	return lp, wal.HTTPSource(ts.URL, nil)
}

// openTestFollower opens a follower of src in its own temp dir with a
// bounded bootstrap wait and closes it with the test.
func openTestFollower(t *testing.T, dir string, src wal.StreamSource, opts ...wal.Option) *wal.Follower {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f, err := wal.OpenFollower(ctx, dir, src, opts...)
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// waitApplied blocks until the follower's applied LSN reaches lsn.
func waitApplied(t *testing.T, f *wal.Follower, lsn uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if f.ReplicaStats().AppliedLSN >= lsn {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	rs := f.ReplicaStats()
	t.Fatalf("follower stuck at LSN %d waiting for %d (leader %d, last error %q)",
		rs.AppliedLSN, lsn, rs.LeaderLSN, rs.LastError)
}

// nfString renders an NF's observable shape for comparison. Naive-mode
// engines answer the zero NF, which must compare equal to itself.
func nfString(n core.NF) string {
	if n.Base() == nil {
		return "<nil>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "k%d|%s|%s", n.Kind(), n.Base(), n.P())
	for _, e := range n.Sum() {
		fmt.Fprintf(&b, "|%s", e)
	}
	return b.String()
}

// requireSameReads compares the full read API of two readers: relation
// lists, every row with its annotation and NF, and a full-wildcard
// Select per relation. Row order is the engine's deterministic
// streaming order, so identical state must yield identical walks.
func requireSameReads(t *testing.T, label string, want, got engine.Reader) {
	t.Helper()
	if w, g := want.NumRows(), got.NumRows(); w != g {
		t.Fatalf("%s: NumRows %d vs %d", label, w, g)
	}
	if w, g := want.SupportSize(), got.SupportSize(); w != g {
		t.Fatalf("%s: SupportSize %d vs %d", label, w, g)
	}
	rels := want.Relations()
	if g := got.Relations(); len(g) != len(rels) {
		t.Fatalf("%s: %d relations vs %d", label, len(rels), len(g))
	}
	type row struct{ key, ann string }
	for _, rel := range rels {
		var wantRows, gotRows []row
		want.EachRow(rel, func(tp db.Tuple, ann *core.Expr) {
			wantRows = append(wantRows, row{tp.Key(), ann.String()})
		})
		got.EachRow(rel, func(tp db.Tuple, ann *core.Expr) {
			gotRows = append(gotRows, row{tp.Key(), ann.String()})
		})
		if len(wantRows) != len(gotRows) {
			t.Fatalf("%s: %s has %d rows vs %d", label, rel, len(wantRows), len(gotRows))
		}
		for i := range wantRows {
			if wantRows[i] != gotRows[i] {
				t.Fatalf("%s: %s row %d differs:\n  leader   %v\n  follower %v",
					label, rel, i, wantRows[i], gotRows[i])
			}
		}
		// NF agreement on a sample of rows (NF is derived per lookup, so
		// checking every row of every relation would dominate the test).
		var tuples []db.Tuple
		want.EachRow(rel, func(tp db.Tuple, _ *core.Expr) { tuples = append(tuples, tp.Clone()) })
		for i := 0; i < len(tuples); i += 1 + len(tuples)/16 {
			w, g := nfString(want.NF(rel, tuples[i])), nfString(got.NF(rel, tuples[i]))
			if w != g {
				t.Fatalf("%s: %s NF(%s) differs:\n  leader   %s\n  follower %s",
					label, rel, tuples[i].Key(), w, g)
			}
		}
		// Full-wildcard Select.
		schema := want.Schema().Relation(rel)
		pat := make(db.Pattern, len(schema.Attrs))
		for i := range pat {
			pat[i] = db.AnyVar(fmt.Sprintf("x%d", i))
		}
		ws, err := want.Select(rel, pat)
		if err != nil {
			t.Fatalf("%s: leader Select(%s): %v", label, rel, err)
		}
		gs, err := got.Select(rel, pat)
		if err != nil {
			t.Fatalf("%s: follower Select(%s): %v", label, rel, err)
		}
		if len(ws) != len(gs) {
			t.Fatalf("%s: Select(%s) %d tuples vs %d", label, rel, len(ws), len(gs))
		}
		for i := range ws {
			if ws[i].Key() != gs[i].Key() {
				t.Fatalf("%s: Select(%s)[%d] %s vs %s", label, rel, i, ws[i].Key(), gs[i].Key())
			}
		}
	}
}

// TestReplicationDifferential is the tentpole acceptance test of the
// replication subsystem: a follower bootstrapped from a live leader
// mid-workload, then fed the rest over the stream, must answer the
// entire read API byte-identically to the leader — snapshots,
// annotations, NFs, Selects, and ?as_of= time travel at every epoch —
// swept over both provenance modes and three workloads. (The shards=1
// suffix is the name the cases had when a sharded twin ran beside them.)
func TestReplicationDifferential(t *testing.T) {
	type load struct {
		name string
		gen  func(t *testing.T) (*db.Database, []db.Transaction)
	}
	loads := []load{{"random", smallWorkload}, {"pinned", pinnedWorkload}, {"tpcc", tpccWorkload}}
	for _, ld := range loads {
		for _, mode := range modes {
			t.Run(ld.name+"/"+modeName(mode)+"/shards=1", func(t *testing.T) {
				initial, txns := ld.gen(t)
				st, err := wal.Open(t.TempDir(),
					wal.WithMode(mode),
					wal.WithInitialDatabase(initial),
					wal.WithSync(wal.SyncNever),
					wal.WithSegmentSize(4096),
					wal.WithCheckpointEvery(40),
					wal.WithHeartbeatEvery(20*time.Millisecond),
				)
				if err != nil {
					t.Fatalf("open leader: %v", err)
				}
				defer st.Close()

				// First half before the follower exists: it arrives via
				// checkpoint bootstrap + disk catch-up, not the live tail.
				half := len(txns) / 2
				if err := st.ApplyAll(context.Background(), txns[:half]); err != nil {
					t.Fatalf("ApplyAll: %v", err)
				}
				_, src := startLeaderServer(t, st)
				// The follower never checkpoints locally, so its
				// bootstrap point stays readable below.
				f := openTestFollower(t, t.TempDir(), src,
					wal.WithSync(wal.SyncNever),
					wal.WithSegmentSize(4096),
				)
				// Second half lands while the follower is streaming live.
				for i := half; i < len(txns); i++ {
					if err := st.ApplyTransaction(&txns[i]); err != nil {
						t.Fatalf("ApplyTransaction %d: %v", i, err)
					}
				}
				waitApplied(t, f, st.Stats().LSN)

				if !f.Ready() {
					t.Fatal("caught-up follower is not ready")
				}
				requireSameBytes(t, "live state", snapshotOf(t, st), snapshotOf(t, f))
				requireSameReads(t, "live state", st, f)

				// Time travel: a record's epoch is its LSN + 1 on both, so
				// views at the same absolute epoch pin the same record
				// boundary, from the follower's restore epoch — the
				// checkpoint it was bootstrapped from — to the horizon.
				c := f.WALStats().CheckpointLSN // bootstrap point: no local checkpoints ran
				if r := f.MVCCStats().RestoreEpoch; r != c {
					t.Fatalf("follower restored at epoch %d, its checkpoint is at LSN %d", r, c)
				}
				if h := f.Horizon(); h != st.Horizon() || h != uint64(len(txns)) {
					t.Fatalf("follower horizon epoch %d, leader's %d, %d records", h, st.Horizon(), len(txns))
				}
				for k := c; k <= uint64(len(txns)); k++ {
					requireSameReads(t, fmt.Sprintf("as_of %d", k), st.At(k), f.At(k))
				}

				rs := f.ReplicaStats()
				if rs.AppliedLSN != uint64(len(txns)) {
					t.Fatalf("follower applied %d, want %d", rs.AppliedLSN, len(txns))
				}
			})
		}
	}
}

// TestFollowerRestartResume pins the resume contract: a follower that
// closed cleanly and reopens against a leader that kept writing resumes
// incrementally from its durable LSN — no resync, no re-streamed
// history — and converges to equality.
func TestFollowerRestartResume(t *testing.T) {
	initial, txns := smallWorkload(t)
	st, err := wal.Open(t.TempDir(),
		wal.WithMode(engine.ModeNormalForm),
		wal.WithInitialDatabase(initial),
		wal.WithSync(wal.SyncNever),
		wal.WithSegmentSize(4096),
		wal.WithHeartbeatEvery(20*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, src := startLeaderServer(t, st)

	half := len(txns) / 2
	if err := st.ApplyAll(context.Background(), txns[:half]); err != nil {
		t.Fatal(err)
	}
	fdir := t.TempDir()
	f := openTestFollower(t, fdir, src, wal.WithSync(wal.SyncNever))
	waitApplied(t, f, uint64(half))
	if rs := f.ReplicaStats(); rs.Resyncs != 1 {
		// The first connect of a fresh follower to a bootstrapped leader
		// is always a checkpoint resync.
		t.Fatalf("fresh follower resyncs = %d, want 1", rs.Resyncs)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Leader keeps writing while the follower is down.
	for i := half; i < len(txns); i++ {
		if err := st.ApplyTransaction(&txns[i]); err != nil {
			t.Fatal(err)
		}
	}

	re := openTestFollower(t, fdir, src, wal.WithSync(wal.SyncNever))
	waitApplied(t, re, uint64(len(txns)))
	if rs := re.ReplicaStats(); rs.Resyncs != 0 {
		t.Fatalf("restarted follower resynced %d times; want incremental resume", rs.Resyncs)
	}
	// The records counter trails the published LSN by one increment, so
	// poll it to its settled value before requiring exactness.
	missed := uint64(len(txns) - half)
	deadline := time.Now().Add(5 * time.Second)
	for re.ReplicaStats().RecordsApplied < missed && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := re.ReplicaStats().RecordsApplied; got != missed {
		t.Fatalf("restarted follower applied %d records, want exactly the missed %d (no re-streaming)",
			got, missed)
	}
	requireSameBytes(t, "after restart", snapshotOf(t, st), snapshotOf(t, re))
	requireSameReads(t, "after restart", st, re)
}

// TestFollowerResyncAfterPrune covers the pruned-suffix path: a
// follower that was down while the leader checkpointed past its resume
// point gets a full checkpoint resync (its stale local state is
// discarded) and still converges to equality.
func TestFollowerResyncAfterPrune(t *testing.T) {
	initial, txns := smallWorkload(t)
	st, err := wal.Open(t.TempDir(),
		wal.WithMode(engine.ModeNormalForm),
		wal.WithInitialDatabase(initial),
		wal.WithSync(wal.SyncNever),
		wal.WithSegmentSize(2048),
		wal.WithHeartbeatEvery(20*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, src := startLeaderServer(t, st)

	half := len(txns) / 2
	if err := st.ApplyAll(context.Background(), txns[:half]); err != nil {
		t.Fatal(err)
	}
	fdir := t.TempDir()
	f := openTestFollower(t, fdir, src, wal.WithSync(wal.SyncNever))
	waitApplied(t, f, uint64(half))
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The closed follower's serving session unregisters asynchronously
	// (the leader notices the dropped connection); wait it out so its
	// position no longer fences pruning.
	deadline := time.Now().Add(10 * time.Second)
	for st.Stats().ActiveStreams != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := st.Stats().ActiveStreams; n != 0 {
		t.Fatalf("leader still has %d active streams after follower close", n)
	}

	// With no streams registered the checkpoint prunes every covered
	// segment; the follower's resume point is gone.
	for i := half; i < len(txns); i++ {
		if err := st.ApplyTransaction(&txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	re := openTestFollower(t, fdir, src, wal.WithSync(wal.SyncNever))
	waitApplied(t, re, uint64(len(txns)))
	if rs := re.ReplicaStats(); rs.Resyncs == 0 {
		t.Fatal("follower resumed incrementally from a pruned position")
	}
	if stats := st.Stats(); stats.ResyncsServed == 0 {
		t.Fatal("leader served no resync")
	}
	requireSameBytes(t, "after prune resync", snapshotOf(t, st), snapshotOf(t, re))
	requireSameReads(t, "after prune resync", st, re)
}

// TestLeaderCheckpointDuringStream races checkpoints (which prune
// segments) against an attached live stream: the stream's position
// fences pruning, so the follower must keep converging incrementally —
// no resync after the initial bootstrap — across repeated checkpoints.
func TestLeaderCheckpointDuringStream(t *testing.T) {
	initial, txns := smallWorkload(t)
	st, err := wal.Open(t.TempDir(),
		wal.WithMode(engine.ModeNormalForm),
		wal.WithInitialDatabase(initial),
		wal.WithSync(wal.SyncNever),
		wal.WithSegmentSize(1024),
		wal.WithHeartbeatEvery(10*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, src := startLeaderServer(t, st)
	f := openTestFollower(t, t.TempDir(), src, wal.WithSync(wal.SyncNever))
	boot := f.ReplicaStats().Resyncs

	for i := range txns {
		if err := st.ApplyTransaction(&txns[i]); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitApplied(t, f, uint64(len(txns)))
	if rs := f.ReplicaStats(); rs.Resyncs != boot {
		t.Fatalf("checkpoints forced %d resyncs on an attached stream", rs.Resyncs-boot)
	}
	requireSameBytes(t, "checkpoint race", snapshotOf(t, st), snapshotOf(t, f))
	requireSameReads(t, "checkpoint race", st, f)
}

// TestFollowerRefusesWrites pins the write-rejection contract: every
// mutating engine.DB method answers ErrFollower, and reads keep
// working afterwards.
func TestFollowerRefusesWrites(t *testing.T) {
	initial, txns := smallWorkload(t)
	st, err := wal.Open(t.TempDir(),
		wal.WithMode(engine.ModeNormalForm),
		wal.WithInitialDatabase(initial),
		wal.WithSync(wal.SyncNever),
		wal.WithHeartbeatEvery(20*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.ApplyAll(context.Background(), txns[:10]); err != nil {
		t.Fatal(err)
	}
	_, src := startLeaderServer(t, st)
	f := openTestFollower(t, t.TempDir(), src, wal.WithSync(wal.SyncNever))
	waitApplied(t, f, 10)

	ctx := context.Background()
	checks := map[string]error{
		"ApplyTransaction": f.ApplyTransaction(&txns[10]),
		"ApplyAll":         f.ApplyAll(ctx, txns[10:12]),
		"RestoreRow":       f.RestoreRow("nope", nil, nil),
		"BuildIndex":       f.BuildIndex("nope", "nope"),
		"DropIndex":        f.DropIndex("nope", "nope"),
	}
	if _, err := f.ApplyBatch(ctx, txns[10:12]); err != nil {
		checks["ApplyBatch"] = err
	} else {
		t.Fatal("ApplyBatch succeeded on a follower")
	}
	if _, err := f.MinimizeAll(ctx); err != nil {
		checks["MinimizeAll"] = err
	} else {
		t.Fatal("MinimizeAll succeeded on a follower")
	}
	for name, err := range checks {
		if err != wal.ErrFollower {
			t.Fatalf("%s: err = %v, want ErrFollower", name, err)
		}
	}
	if f.NumRows() == 0 {
		t.Fatal("reads broke after refused writes")
	}
	if rs := f.ReplicaStats(); rs.AppliedLSN != 10 {
		t.Fatalf("refused writes moved the applied LSN to %d", rs.AppliedLSN)
	}
}

// BenchmarkReplicaLag measures end-to-end replication throughput: the
// wall time for a follower to observe, persist and apply transactions
// committed on a live leader, reported as the time per replicated
// transaction (commit on the leader through visible on the follower).
func BenchmarkReplicaLag(b *testing.B) {
	initial, txns, err := workload.Generate(workload.Config{
		Tuples: 300, Pool: 30, Group: 3, Updates: 256,
		QueriesPerTxn: 3, MergeRatio: 0.2, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	st, err := wal.Open(b.TempDir(),
		wal.WithMode(engine.ModeNormalForm),
		wal.WithInitialDatabase(initial),
		wal.WithSync(wal.SyncNever),
		wal.WithHeartbeatEvery(20*time.Millisecond),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	lp := &leaderProxy{}
	lp.st.Store(st)
	ts := httptest.NewServer(lp)
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	f, err := wal.OpenFollower(ctx, b.TempDir(), wal.HTTPSource(ts.URL, nil), wal.WithSync(wal.SyncNever))
	cancel()
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := txns[i%len(txns)]
		if err := st.ApplyTransaction(&tx); err != nil {
			b.Fatal(err)
		}
		target := st.Stats().LSN
		for f.ReplicaStats().AppliedLSN < target {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// handshakeGate passes a replication stream through to the end of the
// handshake — hello and, for a resync, the shipped checkpoint — and
// holds the first record or heartbeat frame, and everything after it,
// until released: the follower behind it has bootstrapped and applied
// nothing.
type handshakeGate struct {
	ctx     context.Context
	rc      io.ReadCloser
	release <-chan struct{}
	pending []byte
	open    bool
}

func (g *handshakeGate) Read(p []byte) (int, error) {
	if len(g.pending) == 0 && !g.open {
		// One whole frame: length (LE32) and CRC32, then the payload, whose
		// first byte is the message type.
		var hdr [8]byte
		if _, err := io.ReadFull(g.rc, hdr[:]); err != nil {
			return 0, err
		}
		frame := append(hdr[:], make([]byte, binary.LittleEndian.Uint32(hdr[:4]))...)
		if _, err := io.ReadFull(g.rc, frame[8:]); err != nil {
			return 0, err
		}
		if len(frame) > 8 && frame[8] >= 4 { // msgRecord or msgHeartbeat
			select {
			case <-g.release:
				g.open = true
			case <-g.ctx.Done():
				return 0, g.ctx.Err()
			}
		}
		g.pending = frame
	}
	if len(g.pending) > 0 {
		n := copy(p, g.pending)
		g.pending = g.pending[n:]
		return n, nil
	}
	return g.rc.Read(p)
}

func (g *handshakeGate) Close() error { return g.rc.Close() }

// TestFollowerLagKnownAtOpen: the hello says where the leader is, and a
// follower records it before it publishes the store the hello made it
// build — so the first thing anyone can ask a freshly opened follower
// that is behind already answers with its lag. (Recorded after, a
// /readyz racing OpenFollower's return could read lag 0 from a replica
// that had applied nothing.) Both bootstrap shapes: incremental from
// zero, and a resync from the leader's initial checkpoint.
func TestFollowerLagKnownAtOpen(t *testing.T) {
	initial, txns := pinnedWorkload(t)
	for name, boot := range map[string]wal.Option{
		"from_zero": wal.WithSchema(initial.Schema()),
		"resync":    wal.WithInitialDatabase(initial),
	} {
		t.Run(name, func(t *testing.T) {
			st, err := wal.Open(t.TempDir(), boot, wal.WithSync(wal.SyncNever), wal.WithHeartbeatEvery(10*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if err := st.ApplyAll(context.Background(), txns[:20]); err != nil {
				t.Fatal(err)
			}
			_, src := startLeaderServer(t, st)
			release := make(chan struct{})
			gated := func(ctx context.Context, from uint64) (io.ReadCloser, error) {
				rc, err := src(ctx, from)
				if err != nil {
					return nil, err
				}
				return &handshakeGate{ctx: ctx, rc: rc, release: release}, nil
			}
			f := openTestFollower(t, t.TempDir(), gated, wal.WithSync(wal.SyncNever))
			if rs := f.ReplicaStats(); rs.LagRecords != 20 || rs.SyncTarget != 20 || rs.Ready {
				t.Fatalf("first observation of a follower 20 records behind: %+v", rs)
			}
			close(release)
			waitApplied(t, f, 20)
			for deadline := time.Now().Add(30 * time.Second); !f.Ready(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("caught-up follower never became ready: %+v", f.ReplicaStats())
				}
			}
			if rs := f.ReplicaStats(); rs.LagRecords != 0 {
				t.Fatalf("caught-up follower: %+v", rs)
			}
			// The boot record names where the follower's engine came from.
			want := map[string]string{"from_zero": "empty", "resync": "leader"}[name]
			if b := engine.BootOf(f); b.Source != want || (want == "leader") != (b.LoadMs > 0) {
				t.Errorf("boot record of the follower: %+v, want source %s", b, want)
			}
		})
	}
}

// churnSchema is one relation of keyed values that churn rewrites in
// place, so the live state stays the same size however long it runs.
var churnSchema = db.MustSchema(db.MustRelationSchema("Items",
	db.Attribute{Name: "k", Kind: db.KindInt},
	db.Attribute{Name: "v", Kind: db.KindInt}))

// churn applies n transactions of constant-rate churn over a fixed space
// of 64 keys, an insert, a modification and a deletion each, so that
// every record the log appends is about the same size.
func churn(t *testing.T, st *wal.Store, rng *rand.Rand, n int) {
	t.Helper()
	key := func() db.Term { return db.Const(db.I(rng.Int63n(64))) }
	val := func() db.Value { return db.I(rng.Int63n(1000)) }
	base := st.Stats().LSN
	for i := range uint64(n) {
		tx := db.Transaction{Label: fmt.Sprintf("c%06d", base+i), Updates: []db.Update{
			db.Insert("Items", db.Tuple{db.I(rng.Int63n(64)), val()}),
			db.Modify("Items", db.Pattern{key(), db.AnyVar("v")}, []db.SetClause{db.Keep(), db.SetTo(val())}),
			db.Delete("Items", db.Pattern{key(), db.AnyVar("v")}),
		}}
		if err := st.ApplyTransaction(&tx); err != nil {
			t.Fatal(err)
		}
	}
}

// segmentFiles returns the LSN each log segment in dir starts at, in
// order, and the bytes they hold together.
func segmentFiles(t *testing.T, dir string) (starts []uint64, bytes int64) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names { // Glob sorts; the names are fixed-width hex
		var start uint64
		if _, err := fmt.Sscanf(filepath.Base(name), "wal-%x.seg", &start); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		starts, bytes = append(starts, start), bytes+fi.Size()
	}
	return starts, bytes
}

// TestLeaderLogPlateaus: under constant-rate churn over a fixed key
// space, the log a leader keeps plateaus at one checkpoint interval, with
// a follower tailing it as without one. A stream fences pruning at what
// it has been sent, so a follower that keeps up pins nothing a checkpoint
// covers. Checkpoint files are left out: they hold the provenance, which
// grows with the history.
func TestLeaderLogPlateaus(t *testing.T) {
	const checkpoints, interval = 10, 100
	for _, follower := range []bool{false, true} {
		t.Run(fmt.Sprintf("follower=%t", follower), func(t *testing.T) {
			st, err := wal.Open(t.TempDir(),
				wal.WithSchema(churnSchema),
				wal.WithSync(wal.SyncNever),
				wal.WithSegmentSize(512),
				wal.WithHeartbeatEvery(10*time.Millisecond),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			var f *wal.Follower
			if follower {
				_, src := startLeaderServer(t, st)
				f = openTestFollower(t, t.TempDir(), src, wal.WithSync(wal.SyncNever))
			}
			rng := rand.New(rand.NewSource(31))
			churn(t, st, rng, interval)
			// retained[i]: the segment bytes after checkpoint i+1, once the
			// interval of writes that follows it has landed.
			var retained []int64
			for range checkpoints {
				if f != nil {
					waitApplied(t, f, st.Stats().LSN)
				}
				if err := st.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				churn(t, st, rng, interval)
				_, n := segmentFiles(t, st.Dir())
				retained = append(retained, n)
			}
			t.Logf("retained segment bytes after each checkpoint: %v", retained)
			third, last := retained[2], retained[len(retained)-1]
			if third == 0 || 4*last > 5*third {
				t.Fatalf("the log kept %d bytes after checkpoint %d and %d after the third: want a plateau (≤ 1.25×)",
					last, checkpoints, third)
			}
			if f != nil {
				waitApplied(t, f, st.Stats().LSN)
				requireSameBytes(t, "after churn", snapshotOf(t, st), snapshotOf(t, f))
			}
		})
	}
}

// stallingReader is a transport that stops delivering: once held is set,
// the bytes of the read that sees it and everything after are withheld,
// and the read blocks until the transport is cut. Whatever the leader
// wrote meanwhile it counts as sent.
type stallingReader struct {
	ctx     context.Context
	rc      io.ReadCloser
	held    *atomic.Bool
	stalled chan<- struct{}
	cut     <-chan struct{}
}

func (r *stallingReader) Read(p []byte) (int, error) {
	n, err := r.rc.Read(p)
	if !r.held.Load() {
		return n, err
	}
	select {
	case r.stalled <- struct{}{}:
	default:
	}
	select {
	case <-r.cut:
		return 0, errors.New("transport cut")
	case <-r.ctx.Done():
		return 0, r.ctx.Err()
	}
}

func (r *stallingReader) Close() error { return r.rc.Close() }

// TestFollowerResyncAfterSentPrune: the leader's fence is what a stream
// has been sent, not what its follower applied. Records the leader wrote
// into a transport that stopped delivering count as sent, so a checkpoint
// prunes past the follower's applied LSN; once the transport is cut, the
// follower redials from that LSN, takes a checkpoint resync (the only one
// of its life: it first bootstrapped from an empty leader, incrementally)
// and converges.
func TestFollowerResyncAfterSentPrune(t *testing.T) {
	st, err := wal.Open(t.TempDir(),
		wal.WithSchema(churnSchema),
		wal.WithSync(wal.SyncNever),
		wal.WithSegmentSize(1024),
		wal.WithHeartbeatEvery(10*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, src := startLeaderServer(t, st)
	var held atomic.Bool
	stalled, cut := make(chan struct{}, 1), make(chan struct{})
	gated := func(ctx context.Context, from uint64) (io.ReadCloser, error) {
		rc, err := src(ctx, from)
		if err != nil {
			return nil, err
		}
		return &stallingReader{ctx: ctx, rc: rc, held: &held, stalled: stalled, cut: cut}, nil
	}
	f := openTestFollower(t, t.TempDir(), gated, wal.WithSync(wal.SyncNever))
	rng := rand.New(rand.NewSource(37))
	churn(t, st, rng, 60)
	waitApplied(t, f, 60)

	held.Store(true)
	churn(t, st, rng, 60)
	select {
	case <-stalled:
	case <-time.After(30 * time.Second):
		t.Fatal("the transport never stalled")
	}
	deadline := time.Now().Add(30 * time.Second)
	for st.Stats().StreamFenceLSN != st.Stats().LSN {
		if time.Now().After(deadline) {
			t.Fatalf("the leader sent up to %d of %d records", st.Stats().StreamFenceLSN, st.Stats().LSN)
		}
		time.Sleep(time.Millisecond)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applied := f.ReplicaStats().AppliedLSN
	if starts, _ := segmentFiles(t, st.Dir()); applied != 60 || len(starts) == 0 || starts[0] <= applied {
		t.Fatalf("follower applied %d (want 60); the leader's log starts at %v: want it pruned past what the follower applied", applied, starts)
	}

	held.Store(false)
	close(cut)
	waitApplied(t, f, st.Stats().LSN)
	if rs, ss := f.ReplicaStats(), st.Stats(); rs.Resyncs != 1 || ss.ResyncsServed != 1 {
		t.Fatalf("follower resyncs %d, leader resyncs served %d; want 1 and 1", rs.Resyncs, ss.ResyncsServed)
	}
	requireSameBytes(t, "after sent-prune resync", snapshotOf(t, st), snapshotOf(t, f))
	requireSameReads(t, "after sent-prune resync", st, f)
}

// heldReader passes a transport through, except that no read starts
// while hold is write-locked: the follower behind it receives nothing
// more (one read already under way aside) until hold is unlocked.
type heldReader struct {
	io.ReadCloser
	hold *sync.RWMutex
}

func (r heldReader) Read(p []byte) (int, error) {
	r.hold.RLock()
	r.hold.RUnlock()
	return r.ReadCloser.Read(p)
}

// TestFollowerFarBehindWhileStreaming: a follower whose transport is held
// while the leader commits more records than any in-memory queue held
// (4 096) is sent them from the log once it is released, without a
// resync, and converges. Meanwhile the fence is what the stream has been
// sent: a checkpoint keeps every segment from it on.
func TestFollowerFarBehindWhileStreaming(t *testing.T) {
	st, err := wal.Open(t.TempDir(),
		wal.WithSchema(churnSchema),
		wal.WithSync(wal.SyncNever),
		wal.WithSegmentSize(4096),
		wal.WithHeartbeatEvery(10*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, src := startLeaderServer(t, st)
	var hold sync.RWMutex
	held := func(ctx context.Context, from uint64) (io.ReadCloser, error) {
		rc, err := src(ctx, from)
		return heldReader{rc, &hold}, err
	}
	// No stall timeout: a held follower must not give up on its leader.
	f := openTestFollower(t, t.TempDir(), held, wal.WithSync(wal.SyncNever), wal.WithStreamStallTimeout(0))
	rng := rand.New(rand.NewSource(41))
	churn(t, st, rng, 10)
	waitApplied(t, f, 10)

	hold.Lock()
	var once sync.Once
	release := func() { once.Do(hold.Unlock) }
	defer release() // a failure while held must not leave the follower blocked
	churn(t, st, rng, 4200)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ss := st.Stats()
	starts, _ := segmentFiles(t, st.Dir())
	if ss.StreamFenceLSN > ss.LSN || len(starts) == 0 || starts[0] > ss.StreamFenceLSN {
		t.Fatalf("fence %d of %d records; the log starts at %v: want it kept from the fence on", ss.StreamFenceLSN, ss.LSN, starts)
	}
	if applied := f.ReplicaStats().AppliedLSN; applied >= ss.LSN {
		t.Fatalf("the held follower applied %d of %d records", applied, ss.LSN)
	}
	release()

	waitApplied(t, f, ss.LSN)
	for deadline := time.Now().Add(30 * time.Second); st.Stats().StreamFenceLSN != ss.LSN; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("fence %d after the follower applied all %d records", st.Stats().StreamFenceLSN, ss.LSN)
		}
	}
	if rs := f.ReplicaStats(); rs.Resyncs != 0 || rs.Reconnects != 0 {
		t.Fatalf("a follower far behind resynced %d and reconnected %d times, want neither", rs.Resyncs, rs.Reconnects)
	}
	requireSameBytes(t, "far behind", snapshotOf(t, st), snapshotOf(t, f))
}

// TestFollowerCatchUpSyncs: a follower under SyncAlways held while the
// leader commits 4 200 records, then released, catches up; the fsyncs
// that costs are logged and bounded by a sixteenth of the records it
// applied. A follower commits every group of records it finds already
// buffered with one fsync (it took one a record before replay was
// grouped).
func TestFollowerCatchUpSyncs(t *testing.T) {
	st, err := wal.Open(t.TempDir(),
		wal.WithSchema(churnSchema),
		wal.WithSync(wal.SyncNever),
		wal.WithHeartbeatEvery(10*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, src := startLeaderServer(t, st)
	var hold sync.RWMutex
	held := func(ctx context.Context, from uint64) (io.ReadCloser, error) {
		rc, err := src(ctx, from)
		return heldReader{rc, &hold}, err
	}
	f := openTestFollower(t, t.TempDir(), held, wal.WithSync(wal.SyncAlways), wal.WithStreamStallTimeout(0))
	rng := rand.New(rand.NewSource(47))
	churn(t, st, rng, 10)
	waitApplied(t, f, 10)
	hold.Lock()
	var once sync.Once
	release := func() { once.Do(hold.Unlock) }
	defer release() // a failure while held must not leave the follower blocked
	from, before := f.ReplicaStats().AppliedLSN, f.WALStats().Syncs
	churn(t, st, rng, 4200)
	lsn := st.Stats().LSN
	release()
	waitApplied(t, f, lsn)
	applied, syncs := lsn-from, f.WALStats().Syncs-before
	t.Logf("catching up %d records took %d fsyncs", applied, syncs)
	if syncs > applied/16 {
		t.Errorf("catching up %d records took %d fsyncs, more than one per 16 records", applied, syncs)
	}
	if rs := f.ReplicaStats(); rs.Resyncs != 0 {
		t.Fatalf("the follower resynced %d times, want none", rs.Resyncs)
	}
}

// TestStreamLogHoleReturns: a stream whose next segment is missing from
// the retained log ends with an error instead of waiting for it; at the
// latest it ends with its context.
func TestStreamLogHoleReturns(t *testing.T) {
	st, err := wal.Open(t.TempDir(),
		wal.WithSchema(churnSchema),
		wal.WithSync(wal.SyncNever),
		wal.WithSegmentSize(1024),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	churn(t, st, rand.New(rand.NewSource(43)), 80)
	starts, _ := segmentFiles(t, st.Dir())
	if len(starts) < 3 {
		t.Fatalf("segments %v, want three or more", starts)
	}
	if err := os.Remove(filepath.Join(st.Dir(), fmt.Sprintf("wal-%016x.seg", starts[1]))); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- st.ServeStream(ctx, io.Discard, 1) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("a stream across a hole in the log ended without an error")
		}
	case <-time.After(4 * time.Second):
		t.Fatal("a stream across a hole in the log is still running 2 s after its context ended")
	}
}

// TestPruneStopsAtFailedRemoval: a checkpoint that fails to remove the
// oldest segment removes none after it, so the retained log stays one
// chain, and a follower resuming inside that segment is sent the log from
// there, without a resync, and converges — its first stream ending where
// opening that segment fails, and the redial going through.
func TestPruneStopsAtFailedRemoval(t *testing.T) {
	initial, txns := smallWorkload(t)
	fs := iofault.Wrap(wal.OSFS{})
	st, err := wal.Open(t.TempDir(),
		wal.WithInitialDatabase(initial),
		wal.WithSync(wal.SyncNever),
		wal.WithSegmentSize(1024),
		wal.WithHeartbeatEvery(10*time.Millisecond),
		wal.WithFS(fs),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, src := startLeaderServer(t, st)
	if err := st.ApplyAll(context.Background(), txns[:2]); err != nil {
		t.Fatal(err)
	}
	fdir := t.TempDir()
	f := openTestFollower(t, fdir, src, wal.WithSync(wal.SyncNever))
	waitApplied(t, f, 2)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); st.Stats().ActiveStreams != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the closed follower's stream never unregistered")
		}
	}
	if err := st.ApplyAll(context.Background(), txns[2:]); err != nil {
		t.Fatal(err)
	}
	before, _ := segmentFiles(t, st.Dir())
	if len(before) < 3 || before[0] != 0 || before[1] <= 2 {
		t.Fatalf("segments %v: want the follower's position 2 inside the first of three or more", before)
	}
	fs.Inject(iofault.Fault{Op: iofault.OpRemove, Match: "wal-0000000000000000.seg", Nth: 1})
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if after, _ := segmentFiles(t, st.Dir()); !fs.Tripped() || len(after) != len(before)+1 || after[0] != 0 {
		t.Fatalf("segments %v before a checkpoint whose first removal failed, %v after: want all kept", before, after)
	}

	fs.Inject(iofault.Fault{Op: iofault.OpOpen, Match: "wal-0000000000000000.seg", Nth: 1})
	re := openTestFollower(t, fdir, src, wal.WithSync(wal.SyncNever))
	waitApplied(t, re, uint64(len(txns)))
	if rs := re.ReplicaStats(); !fs.Tripped() || rs.Resyncs != 0 || rs.Reconnects == 0 {
		t.Fatalf("open fault tripped %t; the follower resynced %d and reconnected %d times, want 0 and some", fs.Tripped(), rs.Resyncs, rs.Reconnects)
	}
	requireSameBytes(t, "resumed across a failed prune", snapshotOf(t, st), snapshotOf(t, re))
}
