package wal

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/provstore"
)

// Sentinel errors; test with errors.Is.
var (
	// ErrReadOnly reports that a persistent append or fsync failed and
	// the store degraded to read-only. The wrapped message carries the
	// original cause.
	ErrReadOnly = errors.New("wal: store is read-only after a durability failure")
	// ErrLocked reports that another process holds the data directory.
	ErrLocked = errors.New("wal: data directory is locked")
	// ErrCorrupt reports unrecoverable damage: a corrupt record with
	// intact history after it, a broken segment chain, or an unloadable
	// checkpoint that acknowledged records depend on.
	ErrCorrupt = errors.New("wal: log is corrupt")
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("wal: store is closed")
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs on every commit (one fsync per batch for
	// ApplyAll — group commit). Acknowledged writes survive power loss.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background timer; a crash can lose up to
	// one interval of acknowledged writes, never corrupt the log.
	SyncInterval
	// SyncNever leaves fsync to the OS. Process crashes lose nothing
	// already written to the kernel; power loss can lose everything
	// since the last checkpoint.
	SyncNever
)

// syncPolicyNames are the policies' names, as printed and as parsed.
var syncPolicyNames = [...]string{SyncAlways: "always", SyncInterval: "interval", SyncNever: "never"}

// String names the policy as accepted by ParseSyncPolicy.
func (p SyncPolicy) String() string {
	if int(p) < len(syncPolicyNames) {
		return syncPolicyNames[p]
	}
	return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
}

// ParseSyncPolicy parses "always", "interval" or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	for p, name := range syncPolicyNames {
		if s == name {
			return SyncPolicy(p), nil
		}
	}
	return SyncAlways, fmt.Errorf("wal: unknown sync policy %q (want always, interval or never)", s)
}

// options collects Open configuration.
type options struct {
	mode      engine.Mode
	schema    *db.Schema
	source    func() (*db.Schema, db.RowSource, error)
	engOpts   []engine.Option
	sync      SyncPolicy
	interval  time.Duration
	segSize   int64
	ckptEach  uint64
	heartbeat time.Duration
	fs        FS

	// Follower resilience knobs (ignored by leader stores).
	redial       backoff
	stallTimeout time.Duration
}

// Option configures Open.
type Option func(*options)

// newOptions applies opts over the defaults of Open and OpenFollower.
func newOptions(opts []Option) options {
	o := options{
		mode:         engine.ModeNormalForm,
		sync:         SyncAlways,
		interval:     50 * time.Millisecond,
		segSize:      16 << 20,
		heartbeat:    500 * time.Millisecond,
		fs:           OSFS{},
		redial:       backoff{rand: rand.Float64},
		stallTimeout: 10 * time.Second,
	}
	for _, opt := range opts {
		opt(&o)
	}
	if o.segSize < 1<<10 {
		o.segSize = 1 << 10
	}
	if o.heartbeat <= 0 {
		o.heartbeat = 500 * time.Millisecond
	}
	// The redial schedule's defaults, also for a non-positive value: a
	// zero ceiling would cancel the backoff's floor and redial in a hot
	// loop.
	if o.redial.base <= 0 {
		o.redial.base = 50 * time.Millisecond
	}
	if o.redial.cap <= 0 {
		o.redial.cap = 2 * time.Second
	}
	return o
}

// WithMode selects the provenance mode for a new store. Ignored when
// the directory already exists — the persisted mode wins.
func WithMode(m engine.Mode) Option { return func(o *options) { o.mode = m } }

// WithSchema supplies the schema for bootstrapping an empty store.
func WithSchema(s *db.Schema) Option { return func(o *options) { o.schema = s } }

// WithInitialSource bootstraps a new store from the rows open delivers
// over the schema it returns; they become the initial checkpoint. open is
// called only when the directory holds no store yet: an existing one
// recovers without reading, or needing, what it was bootstrapped from.
func WithInitialSource(open func() (*db.Schema, db.RowSource, error)) Option {
	return func(o *options) { o.source = open }
}

// WithInitialDatabase is WithInitialSource over a database in memory.
func WithInitialDatabase(d *db.Database) Option {
	return WithInitialSource(func() (*db.Schema, db.RowSource, error) { return d.Schema(), d.Rows, nil })
}

// WithEngineOptions passes options (auto-indexing, ...) to the
// underlying engine on every open. They may differ between opens: they
// choose access paths, and snapshot and log bytes do not depend on them.
func WithEngineOptions(opts ...engine.Option) Option {
	return func(o *options) { o.engOpts = append(o.engOpts, opts...) }
}

// WithSync selects the fsync policy (default SyncAlways).
func WithSync(p SyncPolicy) Option { return func(o *options) { o.sync = p } }

// WithSyncInterval sets the SyncInterval timer period (default 50ms).
func WithSyncInterval(d time.Duration) Option { return func(o *options) { o.interval = d } }

// WithSegmentSize sets the log segment rotation threshold in bytes of
// records, counted as plain frames however they are packed (default
// 16 MiB).
func WithSegmentSize(n int64) Option { return func(o *options) { o.segSize = n } }

// WithCheckpointEvery checkpoints automatically after every n appended
// records (0, the default, disables automatic checkpoints).
func WithCheckpointEvery(n uint64) Option { return func(o *options) { o.ckptEach = n } }

// WithHeartbeatEvery sets how often an idle replication stream sends a
// heartbeat frame (default 500ms). Heartbeats carry the leader LSN and
// committed horizon, so followers can report lag even with no writes.
func WithHeartbeatEvery(d time.Duration) Option { return func(o *options) { o.heartbeat = d } }

// WithFS substitutes the filesystem — the fault-injection hook.
func WithFS(fs FS) Option { return func(o *options) { o.fs = fs } }

// WithRedialBackoff bounds a follower's redial schedule: delays are
// full-jitter exponential, uniform in [0, min(cap, base·2ⁿ)), so N
// replicas that lose their leader together spread their reconnects
// across the window instead of redialing in lockstep. Defaults: 50ms
// base, 2s cap; a non-positive value keeps its default. Ignored by
// leader stores.
func WithRedialBackoff(base, cap time.Duration) Option {
	return func(o *options) {
		o.redial.base = base
		o.redial.cap = cap
	}
}

// WithStreamStallTimeout bounds how long a follower session waits for
// the stream to open or for the next frame before declaring the link
// dead and redialing. Idle leaders heartbeat every WithHeartbeatEvery
// (default 500ms), so a healthy stream is never silent for long — the
// timeout catches network partitions that blackhole the connection
// without closing it. Default 10s; 0 or negative waits forever (the
// pre-partition-aware behavior). Ignored by leader stores.
func WithStreamStallTimeout(d time.Duration) Option {
	return func(o *options) { o.stallTimeout = d }
}

// Store is a durable provenance engine: an engine.DB whose write
// methods append to a write-ahead log before (transactions) or after
// (minimize, index builds) taking effect, with checkpointing and crash
// recovery. It implements engine.DB, so everything that runs against an
// engine runs against a Store.
type Store struct {
	dir string
	fs  FS

	// The handle is the engine being served and the whole read surface,
	// lock-free: bootstrap, recovery and a follower resync Swap it (under
	// mu once the store is shared); pinned readers never notice, a commit
	// hook on the store hears a CommitReset. A follower's store shares its
	// follower's handle.
	*engine.Handle

	mu sync.Mutex
	lw *logWriter
	// lsn (the next LSN to assign) and closed change under mu; streams
	// read them without it (logEnd).
	lsn       atomic.Uint64
	closed    atomic.Bool
	ckptLSN   uint64 // records below this are in the latest checkpoint
	sinceCkpt uint64
	release   func() // directory lock
	hasInit   bool   // bootstrap database had rows (lives in META)

	// At most one checkpoint is in flight: ckptDone is non-nil from the
	// step that pins its view to the step that prunes behind it, with mu
	// released in between (see checkpoint), and closed then. ckptStop
	// tells the encode in between to give up (see stopCheckpointLocked).
	ckptDone chan struct{}
	ckptStop atomic.Int32
	// gz and gzOut carry a checkpoint's bytes to its file (see
	// writeCheckpoint). The store's first checkpoint makes them and each
	// later one Resets them, which the one-in-flight rule makes safe.
	// Kept here, not pooled: the GC empties a pool between checkpoints,
	// and a new deflate writer allocates ≈ 1.17 MB.
	gz    *gzip.Writer
	gzOut *bufio.Writer

	// enc and encPayloads are applyChunk's record buffer and the
	// records in it, reused under mu (see encodeChunkLocked).
	enc         recEncoder
	encPayloads [][]byte
	// replay is where the replay loops — recovery's segment walk, a
	// follower session's applyReplicated — decode a group's
	// transactions: the engine only borrows them, so the slabs are taken
	// back after every group. Under mu (recovery runs before the store
	// is shared).
	replay db.Builder

	// Replication: registered follower streams. Each handle's position
	// fences log pruning. tail wakes the streams level with the log end
	// at every commit while one is registered, and at Close.
	streams map[*streamHandle]struct{}
	tail    engine.Note

	readOnly atomic.Bool
	roCause  atomic.Value // error

	stopSync chan struct{}
	syncWG   sync.WaitGroup
	closeMu  sync.Mutex // serialises shut

	opts options

	// counters (atomic: read by Stats without mu)
	appended    atomic.Uint64
	syncs       atomic.Uint64
	ckpts       atomic.Uint64
	ckptFails   atomic.Uint64
	ckptSkipped atomic.Uint64
	// replayFailed counts replayed transactions that failed again: the
	// failing transaction a failed chunk logged, and updates an older
	// build applied that Validate now refuses (README's migration note).
	replayFailed atomic.Uint64
	replayed     uint64 // set once during Open
	truncated    int64  // torn-tail bytes discarded during Open
	recovered    bool

	// what checkpoints took, start to finish, and how much of that they
	// held mu — the only part a writer can wait for
	ckptLastUs, ckptLastBytes, ckptTotalUs, ckptHeldUs atomic.Int64

	// replication counters
	streamsServed atomic.Uint64
	resyncsServed atomic.Uint64
}

var _ engine.DB = (*Store)(nil)

// StoreStats is a point-in-time summary of the durability subsystem.
type StoreStats struct {
	Dir            string `json:"dir"`
	Sync           string `json:"sync"`
	LSN            uint64 `json:"lsn"`
	CheckpointLSN  uint64 `json:"checkpoint_lsn"`
	Appended       uint64 `json:"appended"`
	Syncs          uint64 `json:"syncs"`
	Checkpoints    uint64 `json:"checkpoints"`
	CheckpointErrs uint64 `json:"checkpoint_failures"`
	Recovered      bool   `json:"recovered"`
	Replayed       uint64 `json:"replayed_records"`
	ReplayFailed   uint64 `json:"replayFailed"`
	TruncatedTail  int64  `json:"truncated_tail_bytes"`
	ReadOnly       bool   `json:"read_only"`
	ReadOnlyCause  string `json:"read_only_cause,omitempty"`

	// How long the last completed checkpoint took (rotate, encode, fsync,
	// rename, prune), its file's size, and the time all of them took so
	// far. They encode with the store's lock released: CheckpointHeldMs
	// is the part of that total during which they did hold it, the most
	// writers can have waited for them. CheckpointsSkipped counts cadence
	// thresholds crossed while a checkpoint was in flight.
	CheckpointLastMs    float64 `json:"checkpointLastMs"`
	CheckpointLastBytes int64   `json:"checkpointLastBytes"`
	CheckpointTotalMs   float64 `json:"checkpointTotalMs"`
	CheckpointHeldMs    float64 `json:"checkpointHeldMs"`
	CheckpointsSkipped  uint64  `json:"checkpointsSkipped"`

	// Leader-side replication counters. StreamFenceLSN is the first
	// record some registered stream has not been sent yet, the most a
	// checkpoint may prune up to (0 with no streams).
	ActiveStreams  int    `json:"active_streams"`
	StreamFenceLSN uint64 `json:"stream_fence_lsn"`
	StreamsServed  uint64 `json:"streams_served"`
	ResyncsServed  uint64 `json:"resyncs_served"`
}

// Open opens (or bootstraps) the persistent store in dir. A fresh
// directory needs WithSchema or WithInitialDatabase; an existing one
// recovers from its latest checkpoint plus the log suffix. The
// directory is locked against concurrent opens for the lifetime of the
// store.
func Open(dir string, opts ...Option) (*Store, error) {
	o := newOptions(opts)
	if err := o.fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	release, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{Handle: new(engine.Handle), dir: dir, fs: o.fs, release: release, opts: o}
	meta, err := readMeta(s.fs, s.dir)
	switch {
	case errors.Is(err, errNoMeta):
		err = s.bootstrap()
	case err == nil:
		err = s.recover(meta)
	}
	if err != nil {
		release()
		return nil, err
	}
	s.startSyncLoop()
	return s, nil
}

// startSyncLoop launches the SyncInterval timer when the policy asks
// for one. No-op for the other policies.
func (s *Store) startSyncLoop() {
	if s.opts.sync != SyncInterval {
		return
	}
	s.stopSync = make(chan struct{})
	s.syncWG.Add(1)
	go s.syncLoop()
}

// bootstrap initialises a fresh data directory: META, an initial
// checkpoint when the bootstrap database has rows, and the first log
// segment. Refuses a directory that already holds store files without
// a META (a half-deleted or foreign directory).
func (s *Store) bootstrap() error {
	start := time.Now()
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return err
	}
	// A store writes META before its first segment, so segments (or a
	// post-bootstrap checkpoint) without a META mean a half-deleted or
	// foreign directory — refuse. A lone LSN-0 checkpoint or temp file
	// is an interrupted bootstrap that never completed: clean it up and
	// bootstrap again.
	var leftovers []string
	for _, name := range names {
		if _, ok := parseSeqName(name, segPrefix, segSuffix); ok {
			return fmt.Errorf("%w: %s has log segments but no META", ErrCorrupt, s.dir)
		}
		if v, ok := parseSeqName(name, ckptPrefix, ckptSuffix); ok {
			if v != 0 {
				return fmt.Errorf("%w: %s has checkpoints but no META", ErrCorrupt, s.dir)
			}
			leftovers = append(leftovers, name)
		}
		if name == "checkpoint.tmp" || name == "META.tmp" {
			leftovers = append(leftovers, name)
		}
	}
	for _, name := range leftovers {
		if err := s.fs.Remove(filepath.Join(s.dir, name)); err != nil {
			return err
		}
	}
	var eng *engine.Engine
	switch {
	case s.opts.source != nil:
		schema, rows, err := s.opts.source()
		if err == nil {
			eng, err = engine.Load(s.opts.mode, schema, rows, s.opts.engOpts...)
		}
		if err != nil {
			return err
		}
	case s.opts.schema != nil:
		eng = engine.NewEmpty(s.opts.mode, s.opts.schema, s.opts.engOpts...)
	default:
		return fmt.Errorf("wal: a new store needs WithSchema or WithInitialDatabase")
	}
	boot := eng.Boot()
	defer func() { boot.TotalMs = engine.Ms(time.Since(start)) }()
	s.Swap(eng)
	hasInit := s.NumRows() > 0
	if hasInit {
		// The bootstrap rows exist only in memory; a checkpoint is the
		// sole durable copy, so its failure fails Open.
		began := time.Now()
		if _, err := s.writeCheckpoint(0, eng); err != nil {
			return fmt.Errorf("wal: initial checkpoint: %w", err)
		}
		boot.CheckpointMs = engine.Ms(time.Since(began))
	}
	if err := writeMeta(s.fs, s.dir, s.Mode(), s.Schema(), hasInit); err != nil {
		return err
	}
	s.hasInit = hasInit
	lw, err := openLogWriter(s.fs, s.dir, s.opts.segSize, 0, 0, 0, 0)
	if err != nil {
		return err
	}
	s.lw = lw
	return nil
}

// recover rebuilds the engine from the newest loadable checkpoint plus
// the log suffix. Tail damage in the final segment is truncated; damage
// anywhere else is ErrCorrupt.
func (s *Store) recover(meta *metaInfo) error {
	start := time.Now()
	s.recovered = true
	s.hasInit = meta.hasInit
	// A process that died inside a checkpoint (or a follower inside a
	// resync) left up to a checkpoint's worth of bytes under a temporary
	// name, never to be read.
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			_ = s.fs.Remove(filepath.Join(s.dir, name)) // or it stays: garbage, not damage
		}
	}
	ckptSeqs, err := listSeqFiles(s.fs, s.dir, ckptPrefix, ckptSuffix)
	if err != nil {
		return err
	}
	// Newest loadable checkpoint wins. An older checkpoint is only
	// usable if the log still covers the records after it, which the
	// segment-chain walk below verifies against replayStart.
	var replayStart uint64
	var loadErr error
	var eng *engine.Engine
	for i := len(ckptSeqs) - 1; i >= 0 && eng == nil; i-- {
		data, err := s.fs.ReadFile(filepath.Join(s.dir, ckptName(ckptSeqs[i])))
		if err != nil {
			loadErr = err
			continue
		}
		if eng, loadErr = loadCheckpoint(data, ckptSeqs[i], s.opts.engOpts...); loadErr == nil {
			replayStart = ckptSeqs[i]
		}
	}
	if eng == nil {
		if len(ckptSeqs) > 0 {
			return fmt.Errorf("%w: no loadable checkpoint: %v", ErrCorrupt, loadErr)
		}
		if meta.hasInit {
			return fmt.Errorf("%w: initial checkpoint is missing", ErrCorrupt)
		}
		eng = engine.NewEmpty(meta.mode, meta.schema, s.opts.engOpts...)
	}
	s.Swap(eng)
	// Nothing else reads the engine's boot record before Open returns.
	boot, loaded := eng.Boot(), time.Now()
	defer func() {
		boot.ReplayedRecords, boot.ReplayMs = s.replayed, engine.Ms(time.Since(loaded))
		boot.TotalMs = engine.Ms(time.Since(start))
	}()

	segs, err := listSeqFiles(s.fs, s.dir, segPrefix, segSuffix)
	if err != nil {
		return err
	}
	// Start at the last segment that could contain replayStart.
	startIdx := 0
	found := len(segs) == 0
	for i, start := range segs {
		if start <= replayStart {
			startIdx = i
			found = true
		}
	}
	if !found {
		return fmt.Errorf("%w: log starts at %d, checkpoint covers %d", ErrCorrupt, segs[0], replayStart)
	}

	nextLSN := replayStart
	var segStart, segCount uint64
	var segBytes int64
	expect := uint64(0)
	rr := newRecordReader(nil, ErrCorrupt)
	var group replayGroup
	for i := startIdx; i < len(segs); i++ {
		start := segs[i]
		if i > startIdx && start != expect {
			if start < expect || start > replayStart {
				return fmt.Errorf("%w: segment chain broken at %d (expected %d)", ErrCorrupt, start, expect)
			}
			// The gap holds only records the checkpoint covers: a crash
			// interrupted pruning. Benign.
		}
		path := filepath.Join(s.dir, segName(start))
		data, err := s.fs.ReadFile(path)
		if err != nil {
			return err
		}
		rr.reset(bytes.NewReader(data))
		count, plain := uint64(0), int64(0) // plain: the records as plain frames
		for ; ; count++ {
			payload, err := rr.next()
			if err == io.EOF {
				break
			}
			if errors.Is(err, errUnpack) {
				// A whole frame, and malformed: as a record that does not
				// decode, wherever it lies.
				return fmt.Errorf("%w (record %d)", err, start+count)
			}
			if err != nil {
				// Damage followed by one complete valid frame, where the
				// damaged one ends, is not a torn write: skipping it would
				// replay a different history; nor is a packed frame that
				// ends as written (its group may have been acknowledged).
				// Anything else is a crashed write's tail, which only the
				// final segment may have.
				if errors.Is(err, errFrameDamaged) {
					if bytes.HasSuffix(payload, packEnd) {
						return fmt.Errorf("%w: damaged packed frame in %s, written whole", ErrCorrupt, segName(start))
					}
					if _, err := rr.frameReader.next(); err == nil {
						return fmt.Errorf("%w: damaged record inside %s with intact records after it", ErrCorrupt, segName(start))
					}
				}
				if i < len(segs)-1 {
					return fmt.Errorf("%w: damaged tail in non-final segment %s", ErrCorrupt, segName(start))
				}
				s.truncated = int64(len(data)) - rr.good
				if err := s.fs.Truncate(path, rr.good); err != nil {
					return err
				}
				break
			}
			plain += int64(frameHeaderSize + len(payload))
			if lsn := start + count; lsn >= replayStart {
				group.add(payload)
				if s.replayed++; group.full() {
					if err := s.replayLocked(&group, ErrCorrupt, false); err != nil {
						return err
					}
				}
			}
		}
		expect = start + count
		if expect > nextLSN {
			nextLSN = expect
		}
		segStart, segCount, segBytes = start, count, plain
	}
	if err := s.replayLocked(&group, ErrCorrupt, false); err != nil {
		return err
	}
	s.lsn.Store(nextLSN)
	s.ckptLSN = replayStart
	lw, err := openLogWriter(s.fs, s.dir, s.opts.segSize, segStart, segBytes, segCount, nextLSN)
	if err != nil {
		return err
	}
	s.lw = lw
	return nil
}

// A replay group holds at most applyAllChunk records and groupBytes of
// payload; a record that is not a transaction ends it. At 8 KiB a
// group's transactions fit the chunks s.replay keeps across resets, so
// replay allocates no slab per group: 64 KiB groups took recovery of
// TPC-C records from 6.4 to 10.9 kB allocated a record.
const groupBytes = 8 << 10

// replayGroup holds copies of a group's payloads and its decoded
// transactions, reused from group to group. On a follower, frames are
// the group's records in frames of the leader's log, and open is how
// many records the last of them still awaits (see Follower.streamOnce).
type replayGroup struct {
	buf      []byte
	payloads [][]byte
	txns     []db.Transaction
	frames   []int
	open     int
}

func (g *replayGroup) add(p []byte) {
	g.buf = append(g.buf, p...)
	g.payloads = append(g.payloads, g.buf[len(g.buf)-len(p):])
	if g.open == 0 {
		g.frames = append(g.frames, 0)
	} else {
		g.open--
	}
	g.frames[len(g.frames)-1]++
}

func (g *replayGroup) full() bool {
	n := len(g.payloads)
	if n == 0 {
		return false
	}
	// A stream's record message may carry an empty payload: it ends the
	// group, and fails to decode.
	p := g.payloads[n-1]
	return n >= applyAllChunk || len(g.buf) >= groupBytes || len(p) == 0 || p[0] != recTxn && p[0] != recSchemaTxn
}

// replayLocked re-applies a group and empties it: transactions through
// ApplyBatch, going on after a failing one (counted in ReplayFailed: a
// deterministic re-run of an error the original process returned, or
// README's migration note), then a last record of another type. With log
// set (a follower) the group is first appended under one commit, in the
// leader's frames, once all of it decoded, a corrupt payload poisoning no
// local log, and the checkpoint cadence runs after it. A decode or
// restore error means the log does not match the schema.
func (s *Store) replayLocked(g *replayGroup, corrupt error, log bool) error {
	first := s.Horizon() // the group's first LSN: record n's epoch is n + 1
	defer func() {
		s.replay.Reset()
		g.buf, g.payloads, g.txns, g.frames = g.buf[:0], g.payloads[:0], g.txns[:0], g.frames[:0]
	}()
	var last Record
	for i, p := range g.payloads {
		rec, err := (&recDecoder{buf: p, b: &s.replay, schema: s.Engine().Schema()}).record()
		if err != nil {
			return fmt.Errorf("%w: record %d: %v", corrupt, first+uint64(i), err)
		} else if rec.Txn != nil {
			g.txns = append(g.txns, *rec.Txn)
		} else {
			last = rec
		}
	}
	if log {
		if err := s.appendGroupsLocked(g.payloads, g.frames...); err != nil {
			return err
		}
	}
	for txns := g.txns; len(txns) > 0; {
		n, err := s.Engine().ApplyBatch(context.Background(), txns)
		if err == nil {
			break
		}
		s.replayFailed.Add(1)
		txns = txns[n+1:]
	}
	if err := s.applyDecoded(&last); err != nil {
		return fmt.Errorf("%w: record %d: %v", corrupt, first+uint64(len(g.payloads)-1), err)
	}
	if log {
		s.maybeCheckpointLocked()
	}
	return nil
}

// applyDecoded applies a decoded record that is not a transaction.
func (s *Store) applyDecoded(rec *Record) error {
	switch rec.Type {
	case recRestore:
		return s.Engine().RestoreRow(rec.Rel, rec.Tuple, rec.Ann)
	case recMinimize:
		_, err := s.Engine().MinimizeAll(context.Background())
		return err
	case recBuildIndex:
		_ = s.Engine().BuildIndex(rec.Rel, rec.Attr)
		s.Engine().IndexEpoch()
	case recDropIndex:
		_ = s.Engine().DropIndex(rec.Rel, rec.Attr)
		s.Engine().IndexEpoch()
	}
	return nil
}

// --- write path ---------------------------------------------------------

// roError returns the typed read-only error carrying the first cause.
func (s *Store) roError() error {
	if cause, ok := s.roCause.Load().(error); ok {
		return fmt.Errorf("%w (cause: %w)", ErrReadOnly, cause)
	}
	return ErrReadOnly
}

// degradeLocked flips the store to read-only after a durability
// failure and returns the typed error. In-memory state stays readable;
// only the first cause is kept.
func (s *Store) degradeLocked(cause error) error {
	if s.readOnly.CompareAndSwap(false, true) {
		s.roCause.Store(cause)
	}
	return s.roError()
}

// writableLocked is the guard every logged operation starts with: a
// closed store refuses, a degraded one answers its typed first cause.
func (s *Store) writableLocked() error {
	if s.closed.Load() {
		return ErrClosed
	}
	if s.readOnly.Load() {
		return s.roError()
	}
	return nil
}

// commitLocked makes the appended records as durable as the sync
// policy promises: fsync for SyncAlways, flush-to-OS otherwise.
func (s *Store) commitLocked() error {
	if s.opts.sync == SyncAlways {
		if err := s.lw.sync(); err != nil {
			return err
		}
		s.syncs.Add(1)
		return nil
	}
	return s.lw.flush()
}

// appendLocked appends payloads as one group and commits them per the
// sync policy (one fsync for the whole group; see logWriter.append for
// how a group is framed). On failure the store degrades to read-only:
// the log may hold a prefix of the group, so no further writes can be
// acknowledged safely.
func (s *Store) appendLocked(payloads ...[]byte) error {
	return s.appendGroupsLocked(payloads, len(payloads))
}

// appendGroupsLocked is appendLocked of payloads cut into groups of the
// given sizes, under one commit: a follower logs the frames of its
// leader's log as they were.
func (s *Store) appendGroupsLocked(payloads [][]byte, groups ...int) error {
	if err := s.writableLocked(); err != nil {
		return err
	}
	for rest := payloads; len(rest) > 0; groups = groups[1:] {
		if err := s.lw.append(rest[:groups[0]]...); err != nil {
			return s.degradeLocked(err)
		}
		rest = rest[groups[0]:]
	}
	if err := s.commitLocked(); err != nil {
		return s.degradeLocked(err)
	}
	s.lsn.Add(uint64(len(payloads)))
	s.sinceCkpt += uint64(len(payloads))
	s.appended.Add(uint64(len(payloads)))
	// Committed (flushed at minimum): streams may read the records now.
	if len(s.streams) > 0 {
		s.tail.Wake()
	}
	return nil
}

// ApplyTransaction logs the transaction, commits it per the sync
// policy, then applies it to the engine: ApplyBatch of one. The engine's
// apply errors are deterministic, so a logged transaction that fails
// mid-way replays to the identical partial state.
func (s *Store) ApplyTransaction(t *db.Transaction) error {
	_, err := s.applyChunk([]db.Transaction{*t})
	return err
}

// applyAllChunk is how many transactions share one group commit.
const applyAllChunk = 256

// ApplyAll appends and applies txns in chunks of applyAllChunk, one
// fsync per chunk under SyncAlways (group commit). ctx is checked at
// chunk boundaries only, so every logged record is fully applied — a
// cancelled batch never leaves the log ahead of the engine by a
// half-applied chunk. See ApplyBatch to learn how many transactions a
// cancelled or failed batch durably applied.
func (s *Store) ApplyAll(ctx context.Context, txns []db.Transaction) error {
	_, err := s.ApplyBatch(ctx, txns)
	return err
}

// ApplyBatch is ApplyAll reporting the durably applied (logged and
// applied) prefix: after a cancellation or failure, recovery and
// replication resume from txns[applied:] without double-applying.
func (s *Store) ApplyBatch(ctx context.Context, txns []db.Transaction) (applied int, err error) {
	for len(txns) > 0 {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return applied, err
			}
		}
		n := len(txns)
		if n > applyAllChunk {
			n = applyAllChunk
		}
		k, err := s.applyChunk(txns[:n])
		applied += k
		if err != nil {
			return applied, err
		}
		txns = txns[n:]
	}
	return applied, nil
}

// encodeChunkLocked renders the chunk's record payloads back to back
// into the store's encode buffer, reused from chunk to chunk: the first
// valid transactions schema-relative, the rest (a failing last one)
// self-describing. When the buffer grows mid-chunk the earlier payloads
// stay on the old array, which nothing writes again. They are valid
// until the next call: appendLocked copies them into the log writer,
// and streams read them back from the log.
func (s *Store) encodeChunkLocked(schema *db.Schema, chunk []db.Transaction, valid int) [][]byte {
	s.enc.buf.Reset()
	s.encPayloads = s.encPayloads[:0]
	for i := range chunk {
		start := s.enc.buf.Len()
		if i < valid {
			s.enc.txnIn(schema, &chunk[i])
		} else {
			s.enc.txn(&chunk[i])
		}
		s.encPayloads = append(s.encPayloads, s.enc.buf.Bytes()[start:s.enc.buf.Len():s.enc.buf.Len()])
	}
	return s.encPayloads
}

// applyChunk logs and applies a chunk of ApplyBatch, or the part of it
// up to and including the first transaction that fails, under one group
// commit, and reports how many applied. A transaction fails to apply
// exactly when one of its updates fails db.Update.Validate, the engine's
// one check (checkUpdate), so the log never holds a transaction the
// engine did not reach, and the failing one replays to the same partial
// state and error.
func (s *Store) applyChunk(chunk []db.Transaction) (applied int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	schema := s.Engine().Schema()
	valid := len(chunk)
	for i := range chunk {
		if chunk[i].Validate(schema) != nil {
			chunk, valid = chunk[:i+1], i
			break
		}
	}
	if err := s.appendLocked(s.encodeChunkLocked(schema, chunk, valid)...); err != nil {
		return 0, err
	}
	applied, err = s.Engine().ApplyBatch(context.Background(), chunk)
	s.maybeCheckpointLocked()
	return applied, err
}

// RestoreRow validates statically, logs, then applies. Invalid calls
// are delegated unlogged (taking no epoch) so the engine's error text is
// canonical.
func (s *Store) RestoreRow(rel string, t db.Tuple, ann *core.Expr) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.Engine().Schema().Relation(rel)
	if r == nil || t.Conforms(r) != nil {
		return s.Engine().RestoreRow(rel, t, ann)
	}
	payload, err := encodeRestore(rel, t, ann)
	if err != nil {
		return err
	}
	if err := s.appendLocked(payload); err != nil {
		return err
	}
	if err := s.Engine().RestoreRow(rel, t, ann); err != nil {
		return err
	}
	s.maybeCheckpointLocked()
	return nil
}

// MinimizeAll minimizes every annotation and logs a minimize record
// (log-after-success: replaying the record re-runs the full pass). ctx
// is checked before the pass only: once begun it runs to its end, so
// that its epoch always has its record.
func (s *Store) MinimizeAll(ctx context.Context) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return 0, err
	}
	if ctx != nil && ctx.Err() != nil {
		return 0, ctx.Err()
	}
	n, _ := s.Engine().MinimizeAll(context.Background())
	if err := s.appendLocked(encodeMinimize()); err != nil {
		return n, err
	}
	s.maybeCheckpointLocked()
	return n, nil
}

// BuildIndex builds the index, takes its record's empty epoch, then logs
// it (log-after-success) so recovery rebuilds it. Indexes are pure access
// paths: a lost index record changes no answer, so replay errors are
// ignored.
func (s *Store) BuildIndex(rel, attr string) error {
	return s.indexOp(recBuildIndex, (*engine.Engine).BuildIndex, rel, attr)
}

// DropIndex drops the index, then logs it.
func (s *Store) DropIndex(rel, attr string) error {
	return s.indexOp(recDropIndex, (*engine.Engine).DropIndex, rel, attr)
}

func (s *Store) indexOp(rec byte, op func(e *engine.Engine, rel, attr string) error, rel, attr string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	if err := op(s.Engine(), rel, attr); err != nil {
		return err
	}
	s.Engine().IndexEpoch()
	return s.appendLocked(encodeIndexOp(rec, rel, attr))
}

// --- checkpointing ------------------------------------------------------

// What stopCheckpointLocked asks of a checkpoint in flight, and the
// error its encode then fails with.
const (
	ckptCancel  int32 = 1 + iota // not wanted any more: stop encoding, clean up
	ckptAbandon                  // stop where a dying process would, cleaning up nothing
)

var ckptStopErrs = [...]error{
	ckptCancel:  errors.New("wal: checkpoint cancelled"),
	ckptAbandon: errors.New("wal: checkpoint abandoned"),
}

// ckptWriter is the checkpoint file as the encoder sees it: it counts the
// bytes that reached the file and fails once the store has asked the
// checkpoint to stop.
type ckptWriter struct {
	w    io.Writer
	n    int64
	stop *atomic.Int32
}

func (c *ckptWriter) Write(p []byte) (int, error) {
	if how := c.stop.Load(); how != 0 {
		return 0, ckptStopErrs[how]
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// writeAtomic is how every durable file of this package other than a
// log segment lands: written to tmp, fsynced and closed, renamed over
// name, the directory fsynced. A failure before the rename removes tmp —
// unless it stands for the death of the process (ckptAbandon), which
// would not have.
func writeAtomic(fs FS, dir, tmp, name string, write func(w io.Writer) error) error {
	tmp = filepath.Join(dir, tmp)
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		if !errors.Is(err, ckptStopErrs[ckptAbandon]) {
			_ = fs.Remove(tmp)
		}
		return err
	}
	return fs.SyncDir(dir)
}

const ckptTmpName = "checkpoint.tmp"

// ckptLevel is the deflate level of a checkpoint file. On the wire
// benchmark's checkpoints (compress/flate, min of 5 runs):
//
//	file                               raw B      BestSpeed     compress  inflate
//	oltp_point final (LSN 10 800)      3 254 341  57.1 %        80 ms     52 ms
//	bulk_scan bootstrap                1 724 343  43.4 %        31 ms     24 ms
//
// On the oltp_point file level 2 gives 56.2 % in 112 ms, the default
// 55.3 % in 284 ms and HuffmanOnly 76.0 % in 23 ms: BestSpeed buys
// nearly all of the bytes for a third of the default's time.
const ckptLevel = gzip.BestSpeed

// writeCheckpoint snapshots src, the state after the first lsn records,
// to checkpoint-<lsn> (temporary name checkpoint.tmp) and returns the
// file's size. The file is one gzip member (zero ModTime) whose payload
// is the snapshot SaveSnapshot writes.
func (s *Store) writeCheckpoint(lsn uint64, src provstore.Source) (int64, error) {
	cw := ckptWriter{stop: &s.ckptStop}
	if s.gz == nil {
		s.gzOut = bufio.NewWriter(nil)
		s.gz, _ = gzip.NewWriterLevel(nil, ckptLevel) // a valid level
	}
	err := writeAtomic(s.fs, s.dir, ckptTmpName, ckptName(lsn), func(w io.Writer) error {
		cw.w = w
		// deflate writes 240 bytes at a time; gzOut gathers them.
		s.gzOut.Reset(&cw)
		s.gz.Reset(s.gzOut)
		if err := provstore.SaveSnapshot(s.gz, src); err != nil {
			return err
		}
		if err := s.gz.Close(); err != nil {
			return err
		}
		if err := s.gzOut.Flush(); err != nil {
			return err
		}
		// A small checkpoint reaches the file in one write: a stop asked
		// for while it blocked is seen here (entry 0, no stop, is nil).
		return ckptStopErrs[s.ckptStop.Load()]
	})
	return cw.n, err
}

// loadCheckpoint loads the checkpoint file of the state after the first
// lsn records, at epoch lsn: a gzip member of a snapshot, as
// writeCheckpoint writes it, or a bare snapshot (HPRV1–3), as builds
// before the gzip container wrote it and a leader running one ships it.
// The member is inflated as the snapshot decodes and then read to its
// end, so its CRC-32 and length are checked; a mismatch, or any byte
// after the member, fails the load.
func loadCheckpoint(data []byte, lsn uint64, opts ...engine.Option) (*engine.Engine, error) {
	if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) { // gzip's magic; a snapshot's is "HPRV"
		return provstore.LoadSnapshotAt(bytes.NewReader(data), lsn, opts...)
	}
	r := bytes.NewReader(data)
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	zr.Multistream(false)
	eng, err := provstore.LoadSnapshotAt(zr, lsn, opts...)
	if err == nil {
		if _, err = io.Copy(io.Discard, zr); err == nil && r.Len() > 0 {
			err = fmt.Errorf("%d bytes after the checkpoint's gzip member", r.Len())
		}
	}
	if err != nil {
		return nil, err
	}
	return eng, nil
}

// Checkpoint snapshots the current state, rotates the log, and prunes
// segments and checkpoints the new checkpoint supersedes; it returns
// when all of that is done, having first waited for a checkpoint the
// automatic cadence may have in flight. Writers are not held up while
// the snapshot is encoded and written (see checkpoint). On failure the
// store keeps running on the log alone — a failed checkpoint loses
// nothing.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	s.waitCheckpointLocked()
	lsn, view, start, err := s.beginCheckpointLocked()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.checkpoint(lsn, view, start)
}

// waitCheckpointLocked returns once no checkpoint is in flight, mu held
// as on entry but released while it waits.
func (s *Store) waitCheckpointLocked() {
	for s.ckptDone != nil {
		done := s.ckptDone
		s.mu.Unlock()
		<-done
		s.mu.Lock()
	}
}

// stopCheckpointLocked ends a checkpoint in flight the given way and
// waits for it to be gone (releasing mu meanwhile): nothing of it touches
// the directory afterwards.
func (s *Store) stopCheckpointLocked(how int32) {
	s.ckptStop.Store(how)
	s.waitCheckpointLocked()
	s.ckptStop.Store(0)
}

// beginCheckpointLocked is a checkpoint's first step, under mu with none
// in flight: note the LSN, rotate so that the live segment starts there,
// pin the state at that LSN — every engine write is versioned and none
// runs while mu is held, so the view at the horizon is it — and restart
// the cadence. The caller releases mu and runs checkpoint.
func (s *Store) beginCheckpointLocked() (lsn uint64, view engine.View, start time.Time, err error) {
	if err := s.writableLocked(); err != nil {
		return 0, nil, start, err
	}
	start = time.Now()
	defer func() { s.ckptHeldUs.Add(time.Since(start).Microseconds()) }()
	if s.lw.count > 0 {
		if err := s.lw.rotate(); err != nil {
			return 0, nil, start, s.degradeLocked(err)
		}
	}
	s.sinceCkpt = 0
	s.ckptDone = make(chan struct{})
	return s.lsn.Load(), s.At(s.Horizon()), start, nil
}

// checkpoint is the rest of the checkpoint begun at start: encode the
// view into checkpoint-<lsn> without mu — writers append to the rotated
// log and apply to newer versions meanwhile — then, under mu again,
// publish it and prune what it supersedes. A crash before the rename
// recovers from the previous checkpoint across the rotated segment chain
// (removing checkpoint.tmp), one after it from the new checkpoint.
func (s *Store) checkpoint(lsn uint64, view engine.View, start time.Time) error {
	size, err := s.writeCheckpoint(lsn, view)
	s.mu.Lock()
	defer s.mu.Unlock()
	relocked := time.Now()
	defer func() {
		s.ckptHeldUs.Add(time.Since(relocked).Microseconds())
		close(s.ckptDone)
		s.ckptDone = nil
	}()
	if err != nil || s.closed.Load() {
		// Closed after the rename: the file stands, recovery will use it.
		return err
	}
	s.ckptLSN = lsn
	s.ckpts.Add(1)
	// Prune everything the checkpoint supersedes. Failures here leave
	// stale files recovery knows to skip, so they are best-effort.
	// Active replication streams fence pruning: a segment is deleted
	// only if every record it can hold has been sent to every stream, so
	// no stream has the segment it reads next removed. Segments go
	// oldest first, and the first that stays ends the pruning, so the
	// retained log is always one chain a stream can walk segment by
	// segment.
	fence := s.minStreamPosLocked()
	ckpts, _ := listSeqFiles(s.fs, s.dir, ckptPrefix, ckptSuffix)
	for _, v := range ckpts {
		if v < lsn {
			_ = s.fs.Remove(filepath.Join(s.dir, ckptName(v)))
		}
	}
	segs, _ := listSeqFiles(s.fs, s.dir, segPrefix, segSuffix)
	for i, v := range segs {
		// A segment's records end where the next one starts; the segment
		// that was live when the checkpoint began (it starts at lsn) always
		// bounds the last old one.
		end := lsn
		if i+1 < len(segs) {
			end = segs[i+1]
		}
		if v >= lsn || end > fence || s.fs.Remove(filepath.Join(s.dir, segName(v))) != nil {
			break
		}
	}
	_ = s.fs.SyncDir(s.dir)
	took := time.Since(start).Microseconds()
	s.ckptLastUs.Store(took)
	s.ckptLastBytes.Store(size)
	s.ckptTotalUs.Add(took)
	return nil
}

// maybeCheckpointLocked runs the automatic checkpoint cadence: the write
// that crosses the threshold begins a checkpoint — its LSN is that
// write's, whatever the scheduler does next — and a goroutine carries it
// through; while one is in flight a threshold crossing is skipped. An
// automatic checkpoint failure must not fail the apply that triggered it
// (the log holds the data); it is counted and retried at the next
// threshold crossing.
func (s *Store) maybeCheckpointLocked() {
	if s.opts.ckptEach == 0 || s.sinceCkpt < s.opts.ckptEach {
		return
	}
	if s.ckptDone != nil {
		s.ckptSkipped.Add(1)
		s.sinceCkpt = 0
		return
	}
	lsn, view, start, err := s.beginCheckpointLocked()
	if err != nil {
		s.ckptFails.Add(1)
		s.sinceCkpt = 0 // back off until the next full interval
		return
	}
	go func() {
		if s.checkpoint(lsn, view, start) != nil {
			s.ckptFails.Add(1)
		}
	}()
}

// --- lifecycle ----------------------------------------------------------

// syncLoop is the SyncInterval timer.
func (s *Store) syncLoop() {
	defer s.syncWG.Done()
	t := time.NewTicker(s.opts.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopSync:
			return
		case <-t.C:
			s.mu.Lock()
			if !s.closed.Load() && !s.readOnly.Load() {
				if err := s.lw.sync(); err != nil {
					_ = s.degradeLocked(err)
				} else {
					s.syncs.Add(1)
				}
			}
			s.mu.Unlock()
		}
	}
}

// shut is the teardown Close and Crash share: stop the sync timer, mark
// the store closed, cancel a checkpoint in flight, cut the replication
// streams, let go of the log — synced and closed, or with crash both it
// and the checkpoint abandoned as a dying process would leave them — and
// release the directory lock.
func (s *Store) shut(crash bool) error {
	// One teardown at a time, start to finish: a second Close returns only
	// once the store is closed, like Follower.shut's.
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.stopSync != nil {
		close(s.stopSync)
		s.syncWG.Wait()
		s.stopSync = nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil
	}
	s.closed.Store(true)
	if crash {
		s.stopCheckpointLocked(ckptAbandon)
	} else {
		s.stopCheckpointLocked(ckptCancel)
	}
	s.tail.Wake() // waiting streams see the store closed and end
	var err error
	switch {
	case crash:
		s.lw.crash()
	case s.readOnly.Load():
		_ = s.lw.f.Close()
	default:
		err = s.lw.close()
	}
	s.release()
	return err
}

// Close syncs and closes the log and releases the directory lock.
func (s *Store) Close() error { return s.shut(false) }

// Crash abandons buffered log bytes and drops the store without
// flushing or syncing, simulating process death mid-write. Test hook.
func (s *Store) Crash() { _ = s.shut(true) }

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// ReadOnly reports whether the store has degraded to read-only.
func (s *Store) ReadOnly() bool { return s.readOnly.Load() }

// Stats summarizes the durability subsystem.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	lsn, ckptLSN := s.lsn.Load(), s.ckptLSN
	active, fence := len(s.streams), uint64(0)
	if active > 0 {
		fence = s.minStreamPosLocked()
	}
	s.mu.Unlock()
	st := StoreStats{
		Dir:            s.dir,
		Sync:           s.opts.sync.String(),
		LSN:            lsn,
		CheckpointLSN:  ckptLSN,
		Appended:       s.appended.Load(),
		Syncs:          s.syncs.Load(),
		Checkpoints:    s.ckpts.Load(),
		CheckpointErrs: s.ckptFails.Load(),
		Recovered:      s.recovered,
		Replayed:       s.replayed,
		ReplayFailed:   s.replayFailed.Load(),
		TruncatedTail:  s.truncated,
		ReadOnly:       s.readOnly.Load(),
		ActiveStreams:  active,
		StreamFenceLSN: fence,
		StreamsServed:  s.streamsServed.Load(),
		ResyncsServed:  s.resyncsServed.Load(),

		CheckpointLastMs:    float64(s.ckptLastUs.Load()) / 1e3,
		CheckpointLastBytes: s.ckptLastBytes.Load(),
		CheckpointTotalMs:   float64(s.ckptTotalUs.Load()) / 1e3,
		CheckpointHeldMs:    float64(s.ckptHeldUs.Load()) / 1e3,
		CheckpointsSkipped:  s.ckptSkipped.Load(),
	}
	if cause, ok := s.roCause.Load().(error); ok {
		st.ReadOnlyCause = cause.Error()
	}
	return st
}
