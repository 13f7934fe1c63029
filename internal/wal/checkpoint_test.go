package wal_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/wal"
)

// gateFS is the real filesystem with a gate in front of every write to a
// checkpoint.tmp created while the gate is shut: the write announces
// itself on blocked and waits for the gate to open.
type gateFS struct {
	wal.OSFS
	mu      sync.Mutex
	gate    chan struct{} // nil: open
	blocked chan string   // names of gated writes, as they arrive
	creates int           // checkpoint.tmp files created with the gate shut
}

func newGateFS() *gateFS { return &gateFS{blocked: make(chan string, 64)} }

func (g *gateFS) shut() {
	g.mu.Lock()
	g.gate = make(chan struct{})
	g.mu.Unlock()
}

func (g *gateFS) open() {
	g.mu.Lock()
	if g.gate != nil {
		close(g.gate)
		g.gate = nil
	}
	g.mu.Unlock()
}

func (g *gateFS) checkpointCreates() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.creates
}

func (g *gateFS) Create(name string) (wal.File, error) {
	f, err := g.OSFS.Create(name)
	if err != nil || filepath.Base(name) != "checkpoint.tmp" {
		return f, err
	}
	g.mu.Lock()
	if g.gate != nil {
		g.creates++
	}
	g.mu.Unlock()
	return &gatedFile{File: f, fs: g, name: name}, nil
}

type gatedFile struct {
	wal.File
	fs   *gateFS
	name string
}

func (f *gatedFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	gate := f.fs.gate
	f.fs.mu.Unlock()
	if gate != nil {
		f.fs.blocked <- f.name
		<-gate
	}
	return f.File.Write(p)
}

// within fails the test if f has not returned after a generous while: a
// writer stuck behind a checkpoint hangs, it does not fail.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("%s did not return while the checkpoint was blocked", what)
	}
}

const gatedCkptEvery = 20

// openGated opens a store over the gated filesystem, applies transactions
// until the cadence starts a checkpoint, and returns with that checkpoint
// blocked inside its first write and next transactions applied.
func openGated(t *testing.T, dir string, initial *db.Database, txns []db.Transaction, opts ...wal.Option) (st *wal.Store, fs *gateFS, next int) {
	t.Helper()
	fs = newGateFS()
	st, err := wal.Open(dir, append([]wal.Option{
		wal.WithMode(engine.ModeNormalForm),
		wal.WithInitialDatabase(initial),
		wal.WithSegmentSize(2048),
		wal.WithCheckpointEvery(gatedCkptEvery),
		wal.WithFS(fs),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	fs.shut()
	for next = 0; next < gatedCkptEvery; next++ {
		i := next
		within(t, "ApplyTransaction", func() {
			if err := st.ApplyTransaction(&txns[i]); err != nil {
				t.Error(err)
			}
		})
	}
	select {
	case <-fs.blocked:
	case <-time.After(20 * time.Second):
		t.Fatal("crossing the threshold started no checkpoint")
	}
	return st, fs, next
}

func noTmpFiles(t *testing.T, dir string) {
	t.Helper()
	if tmp := dataFiles(t, dir, ".tmp"); len(tmp) != 0 {
		t.Fatalf("temporary files left in the directory: %v", tmp)
	}
}

// TestCheckpointDoesNotBlockWriters: Store.mu is not held while a
// checkpoint is encoded, written or fsynced. With the checkpoint file's
// writes blocked, single and batched applies complete and are readable,
// a second threshold crossing starts no second checkpoint, and once the
// writes go through the directory is, file for file and byte for byte,
// the one a store leaves that checkpointed synchronously at the same LSN.
func TestCheckpointDoesNotBlockWriters(t *testing.T) {
	initial, txns := smallWorkload(t)
	dir := t.TempDir()
	st, fs, next := openGated(t, dir, initial, txns)
	ckptLSN := next

	within(t, "ApplyTransaction", func() {
		if err := st.ApplyTransaction(&txns[next]); err != nil {
			t.Error(err)
		}
	})
	next++
	// Enough to cross the threshold again with the first still in flight.
	batch := txns[next : next+gatedCkptEvery+3]
	within(t, "ApplyBatch", func() {
		if n, err := st.ApplyBatch(context.Background(), batch); err != nil || n != len(batch) {
			t.Errorf("ApplyBatch applied %d of %d: %v", n, len(batch), err)
		}
	})
	next += len(batch)
	within(t, "reading the store", func() {
		requireSameBytes(t, "state while the checkpoint is blocked",
			snapshotOf(t, oracleAt(t, engine.ModeNormalForm, initial, txns, next)), snapshotOf(t, st))
	})
	stats := st.Stats()
	if stats.CheckpointsSkipped != 1 || stats.Checkpoints != 0 || stats.CheckpointLSN != 0 || fs.checkpointCreates() != 1 {
		t.Fatalf("with one checkpoint in flight and a second threshold crossed: skipped %d, completed %d, checkpoint LSN %d, %d checkpoint files begun; want 1, 0, 0, 1",
			stats.CheckpointsSkipped, stats.Checkpoints, stats.CheckpointLSN, fs.checkpointCreates())
	}

	fs.open()
	st.WaitCheckpoint()
	stats = st.Stats()
	if stats.Checkpoints != 1 || stats.CheckpointErrs != 0 || stats.CheckpointLSN != uint64(ckptLSN) {
		t.Fatalf("released checkpoint: completed %d, failed %d, LSN %d; want 1, 0, %d", stats.Checkpoints, stats.CheckpointErrs, stats.CheckpointLSN, ckptLSN)
	}
	if stats.CheckpointHeldMs <= 0 || stats.CheckpointHeldMs > stats.CheckpointTotalMs {
		t.Errorf("checkpointHeldMs = %v of checkpointTotalMs = %v", stats.CheckpointHeldMs, stats.CheckpointTotalMs)
	}

	// The twin checkpoints synchronously at the same LSN, no cadence.
	twinDir := t.TempDir()
	twin, err := wal.Open(twinDir, wal.WithMode(engine.ModeNormalForm), wal.WithInitialDatabase(initial), wal.WithSegmentSize(2048))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ckptLSN; i++ {
		if err := twin.ApplyTransaction(&txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := twin.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := twin.ApplyTransaction(&txns[ckptLSN]); err != nil {
		t.Fatal(err)
	}
	if err := twin.ApplyAll(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	twin.Crash()
	st.Crash()
	got, want := readDir(t, dir), readDir(t, twinDir)
	for name, data := range want {
		if string(got[name]) != string(data) {
			t.Errorf("%s: %d bytes, the synchronous twin's has %d", name, len(got[name]), len(data))
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d files in the directory, the synchronous twin's has %d", len(got), len(want))
	}

	re, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rs := re.Stats(); rs.LSN != uint64(next) || rs.CheckpointLSN != uint64(ckptLSN) {
		t.Fatalf("reopened at LSN %d from checkpoint %d, want %d from %d", rs.LSN, rs.CheckpointLSN, next, ckptLSN)
	}
	requireSameBytes(t, "crash after the released checkpoint",
		snapshotOf(t, oracleAt(t, engine.ModeNormalForm, initial, txns, next)), snapshotOf(t, re))
}

// TestCheckpointStoppedMidEncode stops the store with the checkpoint
// file half written: between the rotate and the rename. A crash abandons
// the temporary file as the death of the process would and recovery
// removes it (with any a follower resync left); a close cancels the
// checkpoint and removes it itself. Either way the next open recovers
// from the previous checkpoint across the rotated segment chain, to the
// never-crashed oracle's bytes.
func TestCheckpointStoppedMidEncode(t *testing.T) {
	for _, how := range []string{"crash", "close"} {
		t.Run(how, func(t *testing.T) {
			initial, txns := smallWorkload(t)
			dir := t.TempDir()
			st, fs, next := openGated(t, dir, initial, txns)
			for ; next < gatedCkptEvery+5; next++ {
				if err := st.ApplyTransaction(&txns[next]); err != nil {
					t.Fatal(err)
				}
			}
			stopped := make(chan struct{})
			go func() {
				defer close(stopped)
				if how == "crash" {
					st.Crash()
				} else if err := st.Close(); err != nil {
					t.Error(err)
				}
			}()
			for deadline := time.Now().Add(20 * time.Second); !st.CheckpointStopping(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s did not ask the checkpoint to stop", how)
				}
			}
			select {
			case <-stopped:
				t.Fatalf("%s returned with the checkpoint still writing", how)
			default:
			}
			fs.open()
			<-stopped
			if got := dataFiles(t, dir, "checkpoint-"); len(got) != 1 || !strings.HasSuffix(got[0], "checkpoint-0000000000000000.ckpt") {
				t.Fatalf("checkpoints after the %s: %v, want only the bootstrap's", how, got)
			}
			if how == "crash" {
				if tmp := dataFiles(t, dir, "checkpoint.tmp"); len(tmp) != 1 {
					t.Fatalf("a crash mid-encode left %v, want the half-written checkpoint.tmp", tmp)
				}
				// What a follower killed inside a resync leaves.
				stale := filepath.Join(dir, "checkpoint-0000000000000007.ckpt.tmp")
				if err := os.WriteFile(stale, []byte("HPRV3\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			} else {
				noTmpFiles(t, dir)
			}

			re, err := wal.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			noTmpFiles(t, dir)
			if rs := re.Stats(); rs.LSN != uint64(next) || rs.CheckpointLSN != 0 || rs.Replayed != uint64(next) {
				t.Fatalf("reopened at LSN %d from checkpoint %d replaying %d, want %d from 0 replaying %d", rs.LSN, rs.CheckpointLSN, rs.Replayed, next, next)
			}
			requireSameBytes(t, how+" mid-encode",
				snapshotOf(t, oracleAt(t, engine.ModeNormalForm, initial, txns, next)), snapshotOf(t, re))
			// And the store checkpoints again.
			if err := re.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if got := re.Stats().CheckpointLSN; got != uint64(next) {
				t.Fatalf("checkpoint after recovery at LSN %d, want %d", got, next)
			}
		})
	}
}

// TestConcurrentClose: several goroutines close a store — under the
// interval sync policy, whose timer they all must stop, with a checkpoint
// held mid-encode — and every Close returns only once the store is
// closed: none while the first still waits for the cancelled checkpoint,
// all without error, and none closes the timer's channel a second time.
func TestConcurrentClose(t *testing.T) {
	initial, txns := smallWorkload(t)
	dir := t.TempDir()
	st, fs, next := openGated(t, dir, initial, txns, wal.WithSync(wal.SyncInterval), wal.WithSyncInterval(time.Millisecond))
	const closers = 4
	returned := make(chan error, closers)
	for i := 0; i < closers; i++ {
		go func() { returned <- st.Close() }()
	}
	for deadline := time.Now().Add(20 * time.Second); !st.CheckpointStopping(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no Close asked the checkpoint to stop")
		}
	}
	// The others have had the time to get as far as they will.
	select {
	case err := <-returned:
		t.Fatalf("a Close returned (%v) with the checkpoint still writing", err)
	case <-time.After(50 * time.Millisecond):
	}
	fs.open()
	for i := 0; i < closers; i++ {
		if err := <-returned; err != nil {
			t.Errorf("Close: %v", err)
		}
	}
	if err := st.ApplyTransaction(&txns[next]); !errors.Is(err, wal.ErrClosed) {
		t.Errorf("apply after Close: %v, want ErrClosed", err)
	}
	noTmpFiles(t, dir)
	re, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	requireSameBytes(t, "reopened after the concurrent Close",
		snapshotOf(t, oracleAt(t, engine.ModeNormalForm, initial, txns, next)), snapshotOf(t, re))
}

// TestExistingDirectoryNeverReadsItsSource: the initial rows are a source
// bootstrap calls on a fresh directory only — a reopen does not call it,
// so it neither pays for nor depends on what the store was seeded from.
func TestExistingDirectoryNeverReadsItsSource(t *testing.T) {
	initial, txns := smallWorkload(t)
	dir := t.TempDir()
	calls := 0
	source := wal.WithInitialSource(func() (*db.Schema, db.RowSource, error) {
		calls++
		if calls > 1 {
			return nil, nil, errors.New("the source is gone")
		}
		return initial.Schema(), initial.Rows, nil
	})
	st, err := wal.Open(dir, wal.WithMode(engine.ModeNormalForm), source)
	if err != nil || calls != 1 {
		t.Fatalf("bootstrap: %v, source called %d times", err, calls)
	}
	if b := st.Engine().Boot(); b.Source != "database" || b.Rows != st.NumRows() || b.CheckpointMs <= 0 || b.TotalMs < b.CheckpointMs {
		t.Errorf("boot record of the bootstrap: %+v", *b)
	}
	if err := st.ApplyAll(context.Background(), txns[:10]); err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := wal.Open(dir, wal.WithMode(engine.ModeNormalForm), source)
	if err != nil || calls != 1 {
		t.Fatalf("reopen: %v, source called %d times", err, calls)
	}
	defer re.Close()
	requireSameBytes(t, "reopened without its source", want, snapshotOf(t, re))
	if b := re.Engine().Boot(); b.Source != "checkpoint" || b.ReplayedRecords != 10 || b.LoadMs <= 0 || b.TotalMs < b.LoadMs {
		t.Errorf("boot record of the recovery: %+v", *b)
	}
}

// TestDamagedCheckpointCaught flips one byte of the newest checkpoint —
// in its gzip header, its deflate body, its CRC-32 and its length — and
// for each flip recovers the directory and bootstraps a follower from the
// checkpoint as the leader ships it. Recovery ends in the never-crashed
// oracle's state or fails with ErrCorrupt, the follower in the leader's
// state or with ErrStreamCorrupt; neither ever yields another state. A
// flip that leaves the payload and its checksum as they were (the
// header's MTIME, XFL and OS bytes) still loads; one in the magic, the
// method, the CRC-32 or the length never does, nor a byte appended.
func TestDamagedCheckpointCaught(t *testing.T) {
	initial, txns := smallWorkload(t)
	dir := t.TempDir()
	st, err := wal.Open(dir, wal.WithMode(engine.ModeNormalForm), wal.WithInitialDatabase(initial))
	if err != nil {
		t.Fatal(err)
	}
	for i := range txns {
		if err := st.ApplyTransaction(&txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	lsn := st.Stats().CheckpointLSN
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(t, oracleAt(t, engine.ModeNormalForm, initial, txns, len(txns)))
	files := readDir(t, dir)
	name := fmt.Sprintf("checkpoint-%016x.ckpt", lsn)
	ckpt := files[name]
	if ckpts := dataFiles(t, dir, "checkpoint-"); len(ckpts) != 1 || len(ckpt) < 18 || ckpt[0] != 0x1f || ckpt[1] != 0x8b {
		t.Fatalf("checkpoints %v, the newest %d bytes starting % x; want one gzip member", ckpts, len(ckpt), ckpt[:min(len(ckpt), 2)])
	}

	const (
		loads = iota
		fails
		either // fails, or loads what the oracle holds
	)
	n := len(ckpt)
	flips := []struct {
		part string
		off  int
		want int
	}{
		{"none", -1, loads},
		{"ID1", 0, fails}, {"ID2", 1, fails}, {"CM", 2, fails}, {"FLG", 3, either},
		{"MTIME", 4, loads}, {"MTIME", 7, loads}, {"XFL", 8, loads}, {"OS", 9, loads},
		{"deflate", 10, either}, {"deflate", 11, either}, {"deflate", n / 2, either}, {"deflate", n - 9, either},
		{"CRC-32", n - 8, fails}, {"CRC-32", n - 5, fails}, {"ISIZE", n - 4, fails}, {"ISIZE", n - 1, fails},
		{"trailing", n, fails}, // a byte after the member
	}
	for _, f := range flips {
		damaged := bytes.Clone(ckpt)
		switch {
		case f.off == n:
			damaged = append(damaged, 0)
		case f.off >= 0:
			damaged[f.off] ^= 0x5a
		}
		label := fmt.Sprintf("%s byte %d", f.part, f.off)
		check := func(how string, got []byte, err, corrupt error) {
			t.Helper()
			switch {
			case err != nil && !errors.Is(err, corrupt):
				t.Errorf("%s: %s failed with %v, want %v", label, how, err, corrupt)
			case err != nil && f.want == loads:
				t.Errorf("%s: %s failed (%v) on a flip that changes no payload", label, how, err)
			case err == nil && f.want == fails:
				t.Errorf("%s: %s loaded a damaged checkpoint", label, how)
			case err == nil && !bytes.Equal(got, want):
				t.Errorf("%s: %s gives %d snapshot bytes that differ from the oracle's %d", label, how, len(got), len(want))
			}
		}

		rdir := t.TempDir()
		for fn, data := range files {
			if fn == name {
				data = damaged
			}
			if err := os.WriteFile(filepath.Join(rdir, fn), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var got []byte
		re, err := wal.Open(rdir)
		if err == nil {
			got = snapshotOf(t, re)
			re.Close()
		}
		check("recovery", got, err, wal.ErrCorrupt)

		if err := os.WriteFile(filepath.Join(dir, name), damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		got = nil
		fs, err := wal.ShipCheckpoint(st, t.TempDir(), lsn)
		if err == nil {
			got = snapshotOf(t, fs)
			fs.Close()
		}
		check("a follower shipped it", got, err, wal.ErrStreamCorrupt)
	}
}

// TestCheckpointsShareOneWriter: every checkpoint of a store goes through
// the one gzip writer the store owns. Cadence checkpoints begun by the
// writes, Checkpoint calls in a loop beside them and a Close that cancels
// whichever is in flight take turns on it (go test -race checks that they
// never overlap), and the directory they leave recovers to the oracle's
// state.
func TestCheckpointsShareOneWriter(t *testing.T) {
	initial, txns := smallWorkload(t)
	dir := t.TempDir()
	st, err := wal.Open(dir, wal.WithMode(engine.ModeNormalForm), wal.WithInitialDatabase(initial),
		wal.WithCheckpointEvery(5), wal.WithSync(wal.SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	var closing atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if err := st.Checkpoint(); err != nil {
				if !closing.Load() {
					t.Errorf("Checkpoint before Close: %v", err)
				}
				return
			}
		}
	}()
	half := len(txns) / 2
	for i := 0; i < half; i++ {
		if err := st.ApplyTransaction(&txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	// A few more of the loop's, so that Close meets one in flight.
	for deadline, at := time.Now().Add(20*time.Second), st.Stats().Checkpoints; st.Stats().Checkpoints < at+3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d checkpoints in 20 s", st.Stats().Checkpoints-at)
		}
	}
	closing.Store(true)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	re, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	requireSameBytes(t, "reopened after checkpoints from three doors",
		snapshotOf(t, oracleAt(t, engine.ModeNormalForm, initial, txns, half)), snapshotOf(t, re))
}
