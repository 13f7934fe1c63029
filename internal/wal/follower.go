package wal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
)

// ErrFollower reports a write attempted on a replication follower.
// Followers serve the full read surface; writes go to the leader.
var ErrFollower = errors.New("wal: store is a replication follower (read-only; write to the leader)")

// ErrStreamStalled reports a replication session that went silent past
// the stall timeout: no records and no heartbeats, the signature of a
// network partition that blackholes the connection without closing it.
// Followers treat it like a dropped connection and redial.
var ErrStreamStalled = errors.New("wal: replication stream stalled (no frames within the stall timeout)")

// Follower is a read replica: it tails a leader's replication stream,
// persists every record into a local WAL directory laid out exactly
// like a leader's (so a follower can be promoted by reopening the
// directory with Open), and applies records through the same replay
// path recovery uses — byte-identical state at every record boundary,
// so snapshots and the whole read surface agree with the leader, at
// every epoch from the checkpoint it restored on (a record's epoch is its
// LSN + 1 on both). It implements engine.DB: the read surface is the
// embedded handle's, and every write returns ErrFollower.
//
// Internally the follower is one goroutine: it reads each CRC-checked
// frame off the connection through the log's frame reader and applies it
// before reading the next, and it is the only goroutine that touches the
// store. Cancellation and the stall timer end a blocked read by closing
// the transport. Disconnects, corrupt frames and leader restarts all
// collapse to the same path: drop the connection and redial from the
// durably applied LSN.
type Follower struct {
	// The handle every store shell of this follower serves through: the
	// read surface and the commit hook are its methods, so they outlive
	// resyncs (each a Swap, a CommitReset to the hook), and the hook rides
	// the replay loop — every replicated record emits its commit event off
	// the local engine, at the record's epoch.
	*engine.Handle

	dir string
	src StreamSource
	o   options

	core atomic.Pointer[Store] // nil until bootstrapped; LSN, local WAL, teardown

	cancel  context.CancelFunc
	wg      sync.WaitGroup
	bootCh  chan struct{} // closed once an engine exists
	closeMu sync.Mutex
	closed  bool

	// ready is monotonic from open to close: set once the applied LSN
	// reaches the target announced by the first successful handshake.
	ready       atomic.Bool
	targetMu    sync.Mutex
	haveTarget  bool
	syncTarget  uint64
	leaderLSN   atomic.Uint64
	reconnects  atomic.Uint64
	resyncs     atomic.Uint64
	records     atomic.Uint64
	stalls      atomic.Uint64
	lastErr     atomic.Value // string
	releaseOnly func()       // dir lock before a core exists
}

var _ engine.DB = (*Follower)(nil)

// FollowerStats is the replication lag summary a follower exposes.
type FollowerStats struct {
	Ready          bool   `json:"ready"`
	AppliedLSN     uint64 `json:"applied_lsn"`
	LeaderLSN      uint64 `json:"leader_lsn"`
	LagRecords     uint64 `json:"lag_records"`
	SyncTarget     uint64 `json:"sync_target"`
	Reconnects     uint64 `json:"reconnects"`
	Resyncs        uint64 `json:"resyncs"`
	RecordsApplied uint64 `json:"records_applied"`
	Stalls         uint64 `json:"stalls"`
	LastError      string `json:"last_error,omitempty"`
}

// OpenFollower opens dir as a replica of the leader behind src and
// starts the apply loop. If dir already holds replicated state it is
// recovered first (exactly like a leader restart) and streaming resumes
// from the durably applied LSN — history is never re-streamed unless
// the leader has pruned it. A fresh directory blocks until the first
// handshake succeeds so the returned Follower always has an engine to
// read from; ctx bounds only that initial wait. Close stops the loop.
//
// Options are the local-durability subset: sync policy, segment size,
// checkpoint cadence, engine options, FS. Mode and schema come from the
// leader.
func OpenFollower(ctx context.Context, dir string, src StreamSource, opts ...Option) (*Follower, error) {
	o := newOptions(opts)
	if err := o.fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	release, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	f := &Follower{Handle: new(engine.Handle), dir: dir, src: src, o: o, bootCh: make(chan struct{})}
	meta, err := readMeta(o.fs, dir)
	switch {
	case errors.Is(err, errNoMeta):
		// Fresh directory: the first handshake supplies the identity.
		f.releaseOnly = release
	case err != nil:
		release()
		return nil, err
	default:
		s := &Store{Handle: f.Handle, dir: dir, fs: o.fs, release: release, opts: o}
		if err := s.recover(meta); err != nil {
			release()
			return nil, err
		}
		s.startSyncLoop()
		f.core.Store(s)
		close(f.bootCh)
	}
	loopCtx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.wg.Add(1)
	go f.run(loopCtx)
	select {
	case <-f.bootCh:
		return f, nil
	case <-ctx.Done():
		f.Close()
		return nil, fmt.Errorf("wal: follower bootstrap: %w", ctx.Err())
	}
}

// backoff is the follower's redial schedule, full-jitter exponential
// (AWS style): the nth delay is uniform in [0, min(cap, base·2ⁿ)),
// floored at a millisecond so a zero draw cannot hot-loop. Full jitter
// decorrelates replicas that lose their leader together: they redial
// spread across the window instead of in lockstep. newOptions sets
// base, cap and rand (tests inject a deterministic draw sequence).
type backoff struct {
	base, cap time.Duration
	rand      func() float64 // uniform in [0, 1)
	attempt   int
}

// backoffFloor keeps a zero jitter draw from redialing instantly.
const backoffFloor = time.Millisecond

// next returns the next delay and advances the schedule.
func (b *backoff) next() time.Duration {
	ceil := b.base
	for i := 0; i < b.attempt && ceil < b.cap; i++ {
		ceil *= 2
	}
	if ceil > b.cap {
		ceil = b.cap
	}
	b.attempt++
	d := time.Duration(b.rand() * float64(ceil))
	if d < backoffFloor {
		d = backoffFloor
	}
	if d > ceil {
		d = ceil
	}
	return d
}

// reset rewinds the schedule to the first attempt.
func (b *backoff) reset() { b.attempt = 0 }

// run redials the leader until the follower closes. The only wait is
// the full-jitter backoff, which resets whenever a session makes
// progress.
func (f *Follower) run(ctx context.Context) {
	defer f.wg.Done()
	redial := f.o.redial
	for ctx.Err() == nil {
		progressed, err := f.streamOnce(ctx)
		if ctx.Err() != nil {
			return
		}
		if err != nil && !errors.Is(err, io.EOF) {
			f.lastErr.Store(err.Error())
		}
		f.reconnects.Add(1)
		if progressed {
			redial.reset()
		}
		if !sleepCtx(ctx, redial.next()) {
			return
		}
	}
}

// sleepCtx sleeps d or until ctx cancels; false means canceled.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}

// streamOnce runs one replication session: dial, handshake, apply until
// the connection drops. It reports whether any message was applied
// (for backoff reset). Frames are read on this goroutine, the only one
// that touches the store, so a payload is applied before the next read
// reuses its buffer; a read blocked on the transport ends by closing it.
func (f *Follower) streamOnce(ctx context.Context) (progressed bool, err error) {
	from := uint64(0)
	if s := f.core.Load(); s != nil {
		from = s.LSN()
	}
	// The stall timer, armed while the open or a read waits, bounds the
	// silence before each frame: heartbeats flow every heartbeat interval
	// even on an idle leader, so a silent link past the timeout is
	// partitioned, not just quiet. It cancels the session's context, which
	// ends the open or closes the transport. With no timeout it never fires.
	timeout := f.o.stallTimeout
	if timeout <= 0 {
		timeout = math.MaxInt64
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var stalled atomic.Bool
	stall := time.AfterFunc(timeout, func() { stalled.Store(true); cancel() })
	defer stall.Stop()
	rc, err := f.src(sctx, from)
	if err != nil {
		if ctx.Err() == nil && stalled.Load() {
			f.stalls.Add(1)
			return false, ErrStreamStalled
		}
		return false, err
	}
	defer rc.Close()
	defer context.AfterFunc(sctx, func() { rc.Close() })()
	fr := newFrameReader(rc, ErrStreamCorrupt)
	next := func() ([]byte, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stall.Reset(timeout)
		p, err := fr.next()
		stall.Stop()
		switch {
		case err == nil:
			return p, nil
		case ctx.Err() != nil:
			return nil, ctx.Err()
		case stalled.Load():
			f.stalls.Add(1)
			return nil, ErrStreamStalled
		}
		return nil, err
	}

	// Handshake: hello first, always.
	p, err := next()
	if err != nil {
		return false, err
	}
	if len(p) == 0 || p[0] != msgHello {
		return false, fmt.Errorf("%w: expected hello, got message type %d", ErrStreamCorrupt, msgType(p))
	}
	hello, err := decodeHello(&recDecoder{buf: p[1:]})
	if err != nil {
		return false, fmt.Errorf("%w: bad hello: %v", ErrStreamCorrupt, err)
	}
	var ckpt []byte
	if hello.resync {
		if ckpt, err = f.collectCheckpoint(next, hello.snapLSN); err != nil {
			return false, err
		}
	}
	if err := f.installHello(hello, ckpt); err != nil {
		return false, err
	}
	progressed = hello.resync // a shipped checkpoint is progress
	f.checkReady()

	// Records join a group while the next frame is already buffered: the
	// group is applied before a read could wait. A heartbeat that names a
	// frame size announces that many records which the leader's log holds
	// in one packed frame: they start a group of their own, logged as
	// that frame.
	s := f.core.Load()
	var group replayGroup
	apply := func() error {
		n := len(group.payloads)
		if err := s.applyReplicated(&group); err != nil {
			return err
		}
		progressed = true
		f.records.Add(uint64(n))
		f.observeLeader(s.LSN())
		f.checkReady()
		return nil
	}
	for {
		p, err := next()
		if err != nil {
			return progressed, err
		}
		switch msgType(p) {
		case msgRecord:
			d := &recDecoder{buf: p[1:]}
			lsn := d.uvarint()
			if d.err != nil {
				return progressed, fmt.Errorf("%w: bad record frame: %v", ErrStreamCorrupt, d.err)
			}
			if want := s.LSN() + uint64(len(group.payloads)); lsn != want {
				return progressed, fmt.Errorf("%w: record LSN %d, expected %d", ErrStreamCorrupt, lsn, want)
			}
			group.add(d.buf)
		case msgHeartbeat:
			d := &recDecoder{buf: p[1:]}
			// The second number is the unread horizon slot (stream.go).
			lsn, _ := d.uvarint(), d.uvarint()
			var k uint64 // the records of an announced frame
			if len(d.buf) > 0 {
				if k = d.uvarint(); group.open > 0 || k < 2 || k > applyAllChunk {
					d.fail("a frame of %d records", k)
				}
			}
			if d.err != nil {
				return progressed, fmt.Errorf("%w: bad heartbeat: %v", ErrStreamCorrupt, d.err)
			}
			if k > 0 {
				if len(group.payloads) > 0 {
					if err := apply(); err != nil {
						return progressed, err
					}
				}
				group.frames, group.open = append(group.frames, 0), int(k)
			}
			f.observeLeader(lsn)
			f.checkReady()
		default:
			return progressed, fmt.Errorf("%w: unexpected message type %d mid-stream", ErrStreamCorrupt, msgType(p))
		}
		if len(group.payloads) > 0 && group.open == 0 && (group.full() || !fr.buffered()) {
			if err := apply(); err != nil {
				return progressed, err
			}
		}
	}
}

func msgType(p []byte) byte {
	if len(p) == 0 {
		return 0
	}
	return p[0]
}

// collectCheckpoint drains ckptChunk frames until ckptDone, verifying
// the done marker names the LSN the hello promised.
func (f *Follower) collectCheckpoint(next func() ([]byte, error), snapLSN uint64) ([]byte, error) {
	var buf bytes.Buffer
	for {
		p, err := next()
		if err != nil {
			return nil, err
		}
		switch msgType(p) {
		case msgCkptChunk:
			buf.Write(p[1:])
		case msgCkptDone:
			d := &recDecoder{buf: p[1:]}
			if lsn := d.uvarint(); d.err != nil || lsn != snapLSN {
				return nil, fmt.Errorf("%w: checkpoint done marker mismatch", ErrStreamCorrupt)
			}
			return buf.Bytes(), nil
		default:
			return nil, fmt.Errorf("%w: message type %d inside checkpoint bootstrap", ErrStreamCorrupt, msgType(p))
		}
	}
}

// installHello establishes or rebuilds the local core per the
// handshake: bootstrap an empty store for an incremental stream from
// zero, install the shipped checkpoint for a resync (discarding any
// divergent or superseded local state), or nothing for a plain resume.
// Once that has succeeded it records where the hello says the leader is
// — before a first core is published, because publishing is what lets
// OpenFollower return and /readyz be asked: a follower that is behind
// must never be seen with no lag.
func (f *Follower) installHello(hello helloMsg, ckpt []byte) error {
	s := f.core.Load()
	switch {
	case hello.resync:
		if s == nil {
			s = f.newCore()
		}
		// On error the Store shell is discarded; the directory lock stays
		// with f.releaseOnly (when no core exists yet) so the retry can
		// build a fresh shell.
		if err := s.resyncFromCheckpoint(hello.mode, hello.schema, hello.snapLSN, ckpt, &f.resyncs); err != nil {
			return err
		}
	case s == nil:
		// Incremental from zero: the leader bootstrapped empty, so the
		// bootstrap of an empty leader with its mode and schema — the same
		// META, engine and first segment — plus the record stream
		// reproduces it.
		ns := f.newCore()
		ns.opts.mode, ns.opts.schema, ns.opts.source = hello.mode, hello.schema, nil
		if err := ns.bootstrap(); err != nil {
			return err
		}
		s = ns
	}
	f.observeLeader(hello.target)
	f.setFirstTarget(hello.target)
	if f.core.Load() == nil {
		s.startSyncLoop()
		f.core.Store(s)
		f.releaseOnly = nil
		close(f.bootCh)
	}
	return nil
}

func (f *Follower) observeLeader(lsn uint64) {
	for {
		cur := f.leaderLSN.Load()
		if lsn <= cur || f.leaderLSN.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// setFirstTarget pins the initial-sync goal: the leader LSN announced
// by the first successful handshake since the follower opened.
func (f *Follower) setFirstTarget(target uint64) {
	f.targetMu.Lock()
	if !f.haveTarget {
		f.haveTarget = true
		f.syncTarget = target
	}
	f.targetMu.Unlock()
}

func (f *Follower) checkReady() {
	if f.ready.Load() {
		return
	}
	f.targetMu.Lock()
	have, target := f.haveTarget, f.syncTarget
	f.targetMu.Unlock()
	s := f.core.Load()
	if have && s != nil && s.LSN() >= target {
		f.ready.Store(true)
	}
}

// Ready reports whether the follower finished its initial sync: the
// engine exists and the applied LSN reached the leader LSN announced
// by the first handshake. Monotonic for the life of the process.
func (f *Follower) Ready() bool { return f.ready.Load() }

// ReplicaStats summarizes replication lag and session health.
func (f *Follower) ReplicaStats() FollowerStats {
	st := FollowerStats{
		Ready:          f.ready.Load(),
		LeaderLSN:      f.leaderLSN.Load(),
		Reconnects:     f.reconnects.Load(),
		RecordsApplied: f.records.Load(),
		Stalls:         f.stalls.Load(),
	}
	f.targetMu.Lock()
	st.SyncTarget = f.syncTarget
	f.targetMu.Unlock()
	if s := f.core.Load(); s != nil {
		st.AppliedLSN = s.LSN()
	}
	// Read after the LSN: a resync is counted before its LSN is published.
	st.Resyncs = f.resyncs.Load()
	if st.LeaderLSN > st.AppliedLSN {
		st.LagRecords = st.LeaderLSN - st.AppliedLSN
	}
	if e, ok := f.lastErr.Load().(string); ok {
		st.LastError = e
	}
	return st
}

// WALStats exposes the local durability counters (the follower's own
// log and checkpoints).
func (f *Follower) WALStats() StoreStats {
	if s := f.core.Load(); s != nil {
		return s.Stats()
	}
	return StoreStats{Dir: f.dir}
}

// Dir returns the local data directory.
func (f *Follower) Dir() string { return f.dir }

// shut is the teardown Close and Crash share: stop the apply loop, then
// shut the local store the same way, or release the directory lock when
// no store was ever established.
func (f *Follower) shut(crash bool) error {
	f.closeMu.Lock()
	defer f.closeMu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	f.cancel()
	f.wg.Wait()
	if s := f.core.Load(); s != nil {
		return s.shut(crash)
	}
	if f.releaseOnly != nil {
		f.releaseOnly()
	}
	return nil
}

// Close stops the apply loop and closes the local store.
func (f *Follower) Close() error { return f.shut(false) }

// Crash stops the apply loop and abandons the local store without
// flushing or syncing, simulating follower process death mid-apply.
// Test hook, mirroring Store.Crash.
func (f *Follower) Crash() { _ = f.shut(true) }

// --- engine.DB: reads are the handle's, writes refuse --------------------

// ApplyTransaction implements engine.DB; followers refuse writes.
func (f *Follower) ApplyTransaction(*db.Transaction) error { return ErrFollower }

// ApplyAll implements engine.DB; followers refuse writes.
func (f *Follower) ApplyAll(context.Context, []db.Transaction) error { return ErrFollower }

// ApplyBatch implements engine.DB; followers refuse writes.
func (f *Follower) ApplyBatch(context.Context, []db.Transaction) (int, error) {
	return 0, ErrFollower
}

// RestoreRow implements engine.DB; followers refuse writes.
func (f *Follower) RestoreRow(string, db.Tuple, *core.Expr) error { return ErrFollower }

// BuildIndex implements engine.DB; followers refuse writes. (Index
// builds replicate from the leader like every other logged record.)
func (f *Follower) BuildIndex(string, string) error { return ErrFollower }

// DropIndex implements engine.DB; followers refuse writes.
func (f *Follower) DropIndex(string, string) error { return ErrFollower }

// MinimizeAll implements engine.DB; followers refuse writes.
func (f *Follower) MinimizeAll(context.Context) (int64, error) { return 0, ErrFollower }

// --- follower-side store plumbing ---------------------------------------

// LSN returns the next LSN the log will assign (== records durably
// appended since the origin).
func (s *Store) LSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lsn.Load()
}

// applyReplicated logs and applies a group of replicated records as
// recovery replays the log, so follower state is byte-identical to a
// leader's that logged the same records.
func (s *Store) applyReplicated(g *replayGroup) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replayLocked(g, ErrStreamCorrupt, true)
}

// newCore shapes a Store over the fresh (META-less) follower directory,
// serving through the follower's handle and taking the directory lock
// the follower holds while it has no core. The caller supplies the
// identity via bootstrap or resyncFromCheckpoint before using it.
func (f *Follower) newCore() *Store {
	return &Store{Handle: f.Handle, dir: f.dir, fs: f.o.fs, release: f.releaseOnly, opts: f.o}
}

// resyncFromCheckpoint replaces the local state with the leader's
// shipped checkpoint at snapLSN and restarts the log there. Local
// segments are deleted first (they are either superseded or divergent),
// then the checkpoint lands via temp+rename, then stale checkpoints
// go — ordered so a crash at any point leaves a directory that either
// recovers to a consistent prefix or resyncs again on reconnect, never
// one that replays divergent records on top of the new checkpoint.
// resyncs counts the installs that succeeded.
func (s *Store) resyncFromCheckpoint(mode engine.Mode, schema *db.Schema, snapLSN uint64, ckpt []byte, resyncs *atomic.Uint64) error {
	eng, err := loadCheckpoint(ckpt, snapLSN, s.opts.engOpts...)
	if err != nil {
		return fmt.Errorf("%w: shipped checkpoint: %v", ErrStreamCorrupt, err)
	}
	eng.Boot().Source = "leader"
	s.mu.Lock()
	defer s.mu.Unlock()
	// A checkpoint of the state being replaced must not land behind this.
	s.stopCheckpointLocked(ckptCancel)
	if s.lw != nil {
		s.lw.crash()
		s.lw = nil
	}
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		if _, ok := parseSeqName(name, segPrefix, segSuffix); ok {
			if err := s.fs.Remove(filepath.Join(s.dir, name)); err != nil {
				return err
			}
		}
	}
	if err := writeBlobAtomic(s.fs, s.dir, ckptName(snapLSN), ckpt); err != nil {
		return err
	}
	if err := writeMeta(s.fs, s.dir, mode, schema, true); err != nil {
		return err
	}
	for _, name := range names {
		if v, ok := parseSeqName(name, ckptPrefix, ckptSuffix); ok && v != snapLSN {
			_ = s.fs.Remove(filepath.Join(s.dir, name))
		}
	}
	_ = s.fs.SyncDir(s.dir)
	lw, err := openLogWriter(s.fs, s.dir, s.opts.segSize, 0, 0, 0, snapLSN)
	if err != nil {
		return err
	}
	// Nothing below can fail. The resync is counted before the LSN it
	// jumps to can be read (LSN takes s.mu), so no reader of the stats
	// sees the jump without the resync that caused it.
	resyncs.Add(1)
	s.Swap(eng)
	s.lw = lw
	s.lsn.Store(snapLSN)
	s.ckptLSN = snapLSN
	s.sinceCkpt = 0
	s.hasInit = true
	return nil
}

// writeBlobAtomic lands data at name via writeAtomic, under the
// temporary name name.tmp.
func writeBlobAtomic(fs FS, dir, name string, data []byte) error {
	return writeAtomic(fs, dir, name+".tmp", name, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
