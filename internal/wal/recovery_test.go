package wal_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/wal"
	"hyperprov/internal/workload"
)

// applyN opens a store in dir with the given options, applies txns and
// returns it.
func applyN(t *testing.T, dir string, n int, opts ...wal.Option) *wal.Store {
	t.Helper()
	initial, txns := smallWorkload(t)
	base := []wal.Option{
		wal.WithMode(engine.ModeNormalForm),
		wal.WithInitialDatabase(initial),
		wal.WithSegmentSize(2048),
	}
	st, err := wal.Open(dir, append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if n > len(txns) {
		t.Fatalf("applyN: %d transactions asked of a workload of %d", n, len(txns))
	}
	if err := st.ApplyAll(context.Background(), txns[:n]); err != nil {
		t.Fatal(err)
	}
	return st
}

func dataFiles(t *testing.T, dir, substr string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.Contains(e.Name(), substr) {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// TestOpenEmptyDir bootstraps from a schema alone: no checkpoint is
// written, and a reopen recovers a zero-row engine from the WAL alone.
func TestOpenEmptyDir(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.Open(dir, wal.WithSchema(workload.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	if st.NumRows() != 0 {
		t.Fatalf("bootstrap from schema has %d rows", st.NumRows())
	}
	if got := dataFiles(t, dir, "checkpoint-"); len(got) != 0 {
		t.Fatalf("empty bootstrap wrote checkpoints: %v", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumRows() != 0 {
		t.Fatalf("reopened empty store has %d rows", re.NumRows())
	}
}

// TestOpenNeedsSchema rejects bootstrapping a fresh directory without a
// schema or initial database.
func TestOpenNeedsSchema(t *testing.T) {
	if _, err := wal.Open(t.TempDir()); err == nil {
		t.Fatal("open of fresh dir without schema succeeded")
	}
}

// TestCheckpointOnlyRecovery recovers from a checkpoint with an empty
// log suffix: nothing replays.
func TestCheckpointOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	st := applyN(t, dir, 30)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	stats := re.Stats()
	if stats.Replayed != 0 {
		t.Fatalf("checkpoint-only recovery replayed %d records", stats.Replayed)
	}
	requireSameBytes(t, "checkpoint-only", want, snapshotOf(t, re))
}

// TestWALOnlyRecovery recovers purely from the log: a schema bootstrap
// never checkpoints, so every record replays.
func TestWALOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	initial, txns := smallWorkload(t)
	_ = initial
	st, err := wal.Open(dir, wal.WithSchema(workload.Schema()), wal.WithSegmentSize(2048))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyAll(context.Background(), txns[:40]); err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(t, st)
	st.Crash()
	re, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Stats().Replayed; got != 40 {
		t.Fatalf("replayed %d records, want 40", got)
	}
	requireSameBytes(t, "wal-only", want, snapshotOf(t, re))
}

// TestTornFinalRecord appends garbage half-frames to the final segment:
// recovery truncates them and keeps everything before.
func TestTornFinalRecord(t *testing.T) {
	for _, garbage := range [][]byte{
		{0x03},                             // short header
		{0x10, 0, 0, 0, 0xde, 0xad, 0xbe},  // header only, payload missing
		{16, 0, 0, 0, 1, 2, 3, 4, 9, 9, 9}, // header + short payload
	} {
		dir := t.TempDir()
		st := applyN(t, dir, 25)
		want := snapshotOf(t, st)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		segs := dataFiles(t, dir, "wal-")
		last := segs[len(segs)-1]
		f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(garbage); err != nil {
			t.Fatal(err)
		}
		f.Close()

		re, err := wal.Open(dir)
		if err != nil {
			t.Fatalf("reopen with torn tail: %v", err)
		}
		stats := re.Stats()
		if stats.TruncatedTail == 0 {
			t.Fatalf("torn tail not truncated: %+v", stats)
		}
		requireSameBytes(t, "torn tail", want, snapshotOf(t, re))
		if got := int(stats.LSN); got != 25 {
			t.Fatalf("recovered LSN %d, want 25", got)
		}
		re.Close()
	}
}

// TestTornPackedFrameDropsItsGroup: a group commit is one packed frame,
// so a crash that tears it loses the whole group and nothing before it.
// A batch whose transaction 10 fails reports 10 applied, as ever, and
// logs that prefix and the failing transaction as one group: whole, it
// replays to the store's state; torn anywhere, recovery truncates the
// frame and keeps exactly the batch before it.
func TestTornPackedFrameDropsItsGroup(t *testing.T) {
	initial, txns := smallWorkload(t)
	ctx := context.Background()
	failing := append(append(txns[20:30:30], db.Transaction{Label: "bad", Updates: []db.Update{
		db.Delete("Nowhere", db.Pattern{db.AnyVar("x")}),
	}}), txns[30:35]...)
	dir := t.TempDir()
	st, err := wal.Open(dir, wal.WithMode(engine.ModeNormalForm), wal.WithInitialDatabase(initial))
	if err != nil {
		t.Fatal(err)
	}
	if applied, err := st.ApplyBatch(ctx, txns[:20]); applied != 20 || err != nil {
		t.Fatalf("first batch: %d applied, %v", applied, err)
	}
	if applied, err := st.ApplyBatch(ctx, failing); applied != 10 || err == nil {
		t.Fatalf("failing batch: %d applied, %v; want 10 and its error", applied, err)
	}
	whole := snapshotOf(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "wal-0000000000000000.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	var frames []int // where each frame starts
	for off := 0; off < len(data); off += 8 + int(binary.LittleEndian.Uint32(data[off:])) {
		frames = append(frames, off)
	}
	if len(frames) != 2 {
		t.Fatalf("two batches logged as %d frames, want one packed frame each", len(frames))
	}
	first := snapshotOf(t, oracleAt(t, engine.ModeNormalForm, initial, txns, 20))
	for _, cut := range []int{len(data), frames[1] + 3, frames[1] + 9, (frames[1] + len(data)) / 2, len(data) - 1} {
		re, err := wal.Open(withSegment(t, dir, data[:cut]))
		if err != nil {
			t.Fatalf("cut at %d of %d: %v", cut, len(data), err)
		}
		stats, state := re.Stats(), snapshotOf(t, re)
		re.Close()
		want, lsn, truncated := first, uint64(20), int64(cut-frames[1])
		if cut == len(data) {
			want, lsn, truncated = whole, 31, 0
		}
		if stats.LSN != lsn || stats.TruncatedTail != truncated {
			t.Fatalf("cut at %d of %d: LSN %d, %d bytes truncated; want %d and %d", cut, len(data), stats.LSN, stats.TruncatedTail, lsn, truncated)
		}
		requireSameBytes(t, fmt.Sprintf("cut at %d of %d", cut, len(data)), want, state)
	}
}

// withSegment copies dir's META and first checkpoint into a new
// directory whose first segment is seg.
func withSegment(t *testing.T, dir string, seg []byte) string {
	t.Helper()
	to := t.TempDir()
	for _, name := range []string{"META", "checkpoint-0000000000000000.ckpt"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(to, "wal-0000000000000000.seg"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	return to
}

// TestDamagedPackedTailIsCorrupt: a tear leaves the final packed frame
// short, or ending in zeros, never ending as it was written. A final
// packed frame that fails its CRC but ends as written was damaged after
// its group was logged, and perhaps acknowledged: recovery refuses the
// directory and truncates nothing, whether the damage is in its CRC,
// its type byte or its deflate stream. Zero-filled from its middle, the
// same frame is a tear and drops only its group.
func TestDamagedPackedTailIsCorrupt(t *testing.T) {
	initial, txns := smallWorkload(t)
	dir := t.TempDir()
	st, err := wal.Open(dir, wal.WithMode(engine.ModeNormalForm), wal.WithInitialDatabase(initial))
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]db.Transaction{txns[:20], txns[20:30]} {
		if err := st.ApplyAll(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "wal-0000000000000000.seg"))
	if err != nil {
		t.Fatal(err)
	}
	last := int(binary.LittleEndian.Uint32(data)) + 8 // where the second frame starts
	if last >= len(data) || data[last+8] != 0x80 || last+8+int(binary.LittleEndian.Uint32(data[last:])) != len(data) {
		t.Fatalf("two batches of a %d-byte segment are not two packed frames", len(data))
	}
	for _, at := range []int{last + 4, last + 8, (last + len(data)) / 2, len(data) - 5} {
		damaged := bytes.Clone(data)
		damaged[at] ^= 0x10
		re := withSegment(t, dir, damaged)
		if _, err := wal.Open(re); !errors.Is(err, wal.ErrCorrupt) {
			t.Errorf("a bit flipped at %d of the final frame's %d bytes: Open = %v, want ErrCorrupt", at-last, len(data)-last, err)
		}
		if after, _ := os.ReadFile(filepath.Join(re, "wal-0000000000000000.seg")); !bytes.Equal(after, damaged) {
			t.Errorf("a bit flipped at %d of the final frame: recovery rewrote the segment", at-last)
		}
	}
	torn := bytes.Clone(data)
	clear(torn[(last+len(data))/2:])
	re, err := wal.Open(withSegment(t, dir, torn))
	if err != nil {
		t.Fatalf("the final frame zero-filled from its middle: %v", err)
	}
	defer re.Close()
	if stats := re.Stats(); stats.LSN != 20 || stats.TruncatedTail != int64(len(data)-last) {
		t.Fatalf("the final frame zero-filled from its middle: LSN %d, %d bytes truncated; want 20 and %d", stats.LSN, stats.TruncatedTail, len(data)-last)
	}
	requireSameBytes(t, "zero-filled packed tail", snapshotOf(t, oracleAt(t, engine.ModeNormalForm, initial, txns, 20)), snapshotOf(t, re))
}

// TestZeroFilledTailIsTorn: a crash that persisted the final segment's
// length but not its last bytes leaves a frame whose payload is zeros,
// with zeros after it. Eight zero bytes are an empty frame whose CRC
// checks out, but no record is empty: recovery truncates the tail and
// keeps every record before it, instead of refusing the directory for a
// damaged record with an intact one after it.
func TestZeroFilledTailIsTorn(t *testing.T) {
	dir := t.TempDir()
	st := applyN(t, dir, 24)
	want := snapshotOf(t, st)
	_, txns := smallWorkload(t)
	if err := st.ApplyTransaction(&txns[24]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs := dataFiles(t, dir, "wal-")
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	off := 0 // where the final frame starts
	for at := 0; at < len(data); at += 8 + int(binary.LittleEndian.Uint32(data[at:])) {
		off = at
	}
	clear(data[off+8:])
	data = append(data, make([]byte, 16)...)
	if err := os.WriteFile(last, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := wal.Open(dir)
	if err != nil {
		t.Fatalf("reopen with a zero-filled tail: %v", err)
	}
	defer re.Close()
	if stats := re.Stats(); stats.LSN != 24 || stats.TruncatedTail != int64(len(data)-off) {
		t.Fatalf("recovered LSN %d, truncated %d bytes; want 24 and the %d-byte tail", stats.LSN, stats.TruncatedTail, len(data)-off)
	}
	requireSameBytes(t, "zero-filled tail", want, snapshotOf(t, re))
}

// TestCorruptMidLogRecord flips a byte in an early record of the final
// segment: intact records follow it, so recovery must refuse with
// ErrCorrupt rather than silently skip acknowledged history.
func TestCorruptMidLogRecord(t *testing.T) {
	dir := t.TempDir()
	st := applyN(t, dir, 25)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs := dataFiles(t, dir, "wal-")
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 32 {
		t.Fatalf("final segment too small to corrupt: %d bytes", len(data))
	}
	data[10] ^= 0xff // inside the first record's payload
	if err := os.WriteFile(last, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = wal.Open(dir)
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("open over mid-log corruption: err = %v, want ErrCorrupt", err)
	}
}

// TestCorruptNonFinalSegment damages the tail of a non-final segment:
// hard error, never truncation.
func TestCorruptNonFinalSegment(t *testing.T) {
	dir := t.TempDir()
	st := applyN(t, dir, 50) // small segments: several rotations
	// Ten more, real ones: the workload's first, again.
	_, txns := smallWorkload(t)
	if err := st.ApplyAll(context.Background(), txns[:10]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs := dataFiles(t, dir, "wal-")
	if len(segs) < 2 {
		t.Fatalf("want several segments, got %v", segs)
	}
	first := segs[0]
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(first, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = wal.Open(dir)
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("open over damaged non-final segment: err = %v, want ErrCorrupt", err)
	}
}

// TestMissingSegment removes a middle segment: the chain is broken and
// recovery must refuse.
func TestMissingSegment(t *testing.T) {
	dir := t.TempDir()
	st := applyN(t, dir, 50)
	// Again: a hundred records fill three segments.
	_, txns := smallWorkload(t)
	if err := st.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs := dataFiles(t, dir, "wal-")
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %v", segs)
	}
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	_, err := wal.Open(dir)
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("open with missing segment: err = %v, want ErrCorrupt", err)
	}
}

// TestCheckpointNewerThanWAL deletes the (empty) post-checkpoint
// segment: the checkpoint alone covers every acknowledged record, so
// the store opens and starts a fresh log at the checkpoint LSN.
func TestCheckpointNewerThanWAL(t *testing.T) {
	dir := t.TempDir()
	st := applyN(t, dir, 30)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(t, st)
	lsn := st.Stats().LSN
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, seg := range dataFiles(t, dir, "wal-") {
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
	}
	re, err := wal.Open(dir)
	if err != nil {
		t.Fatalf("reopen with checkpoint newer than WAL: %v", err)
	}
	defer re.Close()
	if got := re.Stats().LSN; got != lsn {
		t.Fatalf("LSN %d, want %d", got, lsn)
	}
	requireSameBytes(t, "ckpt-newer", want, snapshotOf(t, re))
}

// TestMissingInitialCheckpoint deletes the checkpoint of a store whose
// bootstrap had rows: recovery must refuse (the initial data is gone),
// not silently return an empty database.
func TestMissingInitialCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st := applyN(t, dir, 10)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, ckpt := range dataFiles(t, dir, "checkpoint-") {
		if err := os.Remove(ckpt); err != nil {
			t.Fatal(err)
		}
	}
	_, err := wal.Open(dir)
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("open without the initial checkpoint: err = %v, want ErrCorrupt", err)
	}
}

// TestCorruptCheckpoint bit-flips the newest checkpoint: recovery must
// refuse rather than load garbage (older coverage was pruned).
func TestCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st := applyN(t, dir, 30)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ckpts := dataFiles(t, dir, "checkpoint-")
	if len(ckpts) != 1 {
		t.Fatalf("want one checkpoint, got %v", ckpts)
	}
	data, err := os.ReadFile(ckpts[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(ckpts[0], data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = wal.Open(dir)
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("open over corrupt checkpoint: err = %v, want ErrCorrupt", err)
	}
}

// TestDoubleOpenLocked refuses a second concurrent open; the lock
// releases on Close and on Crash.
func TestDoubleOpenLocked(t *testing.T) {
	dir := t.TempDir()
	st := applyN(t, dir, 5)
	_, err := wal.Open(dir)
	if !errors.Is(err, wal.ErrLocked) {
		t.Fatalf("second open: err = %v, want ErrLocked", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := wal.Open(dir)
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	re.Crash()
	re2, err := wal.Open(dir)
	if err != nil {
		t.Fatalf("open after crash: %v", err)
	}
	re2.Close()
}

// TestForeignDirRejected refuses to bootstrap over a directory that has
// store files but no META.
func TestForeignDirRejected(t *testing.T) {
	dir := t.TempDir()
	st := applyN(t, dir, 5)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "META")); err != nil {
		t.Fatal(err)
	}
	_, err := wal.Open(dir, wal.WithSchema(workload.Schema()))
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("bootstrap over half-deleted store: err = %v, want ErrCorrupt", err)
	}
}

// TestWritesAfterCloseFail checks the ErrClosed surface.
func TestWritesAfterCloseFail(t *testing.T) {
	dir := t.TempDir()
	st := applyN(t, dir, 5)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, txns := smallWorkload(t)
	if err := st.ApplyTransaction(&txns[0]); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("apply after close: err = %v, want ErrClosed", err)
	}
	if err := st.Checkpoint(); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("checkpoint after close: err = %v, want ErrClosed", err)
	}
}

// TestFinalFrameDamageSweep damages the final frame of a sync=always log,
// plain (one record) and packed (a group commit of ten), in every way
// one bit or one cut can: each single-bit flip of its 8-byte header, of
// its last 4 bytes and of its whole payload, and a truncation and a
// zero-fill to the end of the file from every byte offset. Each
// recovery is classified as C (ErrCorrupt), T (a torn tail truncated) or
// R (recovered, nothing truncated), and the table — the outcome of each
// bit or offset in order, and the acknowledged transactions each class
// lost — is logged under -v. It asserts what holds today: a truncation
// or a zero-fill is a tear that drops that frame's group and nothing
// before it, and a payload flip is either refused (a packed frame that
// still ends as written) or such a tear. A header flip is only
// measured: some still read as a tear (the frame's CRC does not cover
// its length).
func TestFinalFrameDamageSweep(t *testing.T) {
	initial, txns := smallWorkload(t)
	for _, tc := range []struct {
		name    string
		batches [][]db.Transaction
		typ     byte // the final frame's type byte
	}{
		{"plain", [][]db.Transaction{txns[:12], txns[12:13]}, 6},     // a schema-relative transaction
		{"packed", [][]db.Transaction{txns[:20], txns[20:30]}, 0x80}, // a packed group
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := wal.Open(dir, wal.WithMode(engine.ModeNormalForm), wal.WithInitialDatabase(initial), wal.WithSync(wal.SyncAlways))
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range tc.batches {
				if err := st.ApplyAll(context.Background(), batch); err != nil {
					t.Fatal(err)
				}
			}
			full := st.LSN()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(dir, "wal-0000000000000000.seg"))
			if err != nil {
				t.Fatal(err)
			}
			last := 0 // where the final frame starts
			for at := 0; at < len(data); at += 8 + int(binary.LittleEndian.Uint32(data[at:])) {
				last = at
			}
			group := uint64(len(tc.batches[len(tc.batches)-1]))
			if data[last+8] != tc.typ {
				t.Fatalf("the final frame has type %#x, want %#x", data[last+8], tc.typ)
			}
			// recoverFrom classifies the recovery of dir with seg as its
			// segment: the class, the acknowledged transactions lost and
			// the bytes truncated.
			recoverFrom := func(seg []byte) (class byte, lost uint64, truncated int64) {
				to := withSegment(t, dir, seg)
				defer os.RemoveAll(to)
				re, err := wal.Open(to)
				switch {
				case errors.Is(err, wal.ErrCorrupt):
					return 'C', 0, 0
				case err != nil:
					t.Fatalf("recovery failed, but not as corrupt: %v", err)
				}
				defer re.Close()
				stats := re.Stats()
				if class = 'R'; stats.TruncatedTail > 0 {
					class = 'T'
				}
				return class, full - stats.LSN, stats.TruncatedTail
			}
			row := func(what string, outcomes []byte, lost map[byte]uint64) {
				counts := map[byte]int{}
				for _, c := range outcomes {
					counts[c]++
				}
				t.Logf("%s %-17s %s  C %d, T %d (lost %d), R %d (lost %d)", tc.name, what, outcomes,
					counts['C'], counts['T'], lost['T'], counts['R'], lost['R'])
			}
			// dropsFrame: a tear that truncates the final frame and loses its
			// group, nothing before it.
			dropsFrame := func(c byte, l uint64, truncated int64) bool {
				return c == 'T' && l == group && truncated == int64(len(data)-last)
			}
			// flips flips each bit of data[from:to] in turn; want, when
			// given, is what the flip at byte at must come to.
			flips := func(what string, from, to int, want func(at int, c byte, l uint64, truncated int64) bool) {
				var out []byte
				lost := map[byte]uint64{}
				for at := from; at < to; at++ {
					for bit := range 8 {
						damaged := bytes.Clone(data)
						damaged[at] ^= 1 << bit
						c, l, truncated := recoverFrom(damaged)
						if want != nil && !want(at, c, l, truncated) {
							t.Errorf("%s: bit %d of the final frame's byte %d: class %c, %d transactions lost, %d bytes truncated",
								what, bit, at-last, c, l, truncated)
						}
						out, lost[c] = append(out, c), max(lost[c], l)
					}
				}
				row(what, out, lost)
			}
			t.Logf("%s: final frame of %d bytes at offset %d holds %d of %d acknowledged transactions", tc.name, len(data)-last, last, group, full)
			flips("length flips", last, last+4, nil)
			flips("CRC flips", last+4, last+8, nil)
			flips("last-4-byte flips", len(data)-4, len(data), nil)
			// A flipped payload bit fails the CRC. A final packed frame that
			// still ends as written is refused; any other is a tear.
			flips("payload flips", last+8, len(data), func(at int, c byte, l uint64, truncated int64) bool {
				if tc.typ == 0x80 && at < len(data)-4 {
					return c == 'C'
				}
				return dropsFrame(c, l, truncated)
			})

			// A zero-fill from any byte of the final frame to the end of the
			// file is a tear that drops the frame, unless it changed nothing.
			var zeros []byte
			lost := map[byte]uint64{}
			for at := last; at < len(data); at++ {
				damaged := bytes.Clone(data)
				clear(damaged[at:])
				c, l, truncated := recoverFrom(damaged)
				if !dropsFrame(c, l, truncated) && !(bytes.Equal(damaged, data) && c == 'R' && l == 0) {
					t.Errorf("zero-fill from the final frame's byte %d of %d: class %c, %d transactions lost, %d bytes truncated; want a tear losing its %d",
						at-last, len(data)-last, c, l, truncated, group)
				}
				zeros, lost[c] = append(zeros, c), max(lost[c], l)
			}
			row("zero-fills", zeros, lost)

			var cuts []byte
			clear(lost)
			for cut := last; cut < len(data); cut++ {
				c, l, truncated := recoverFrom(data[:cut])
				if c == 'C' || l != group || truncated != int64(cut-last) {
					t.Errorf("cut at %d of the final frame's %d bytes: class %c, %d transactions lost, %d bytes truncated; want a tear losing its %d and truncating %d",
						cut-last, len(data)-last, c, l, truncated, group, cut-last)
				}
				cuts, lost[c] = append(cuts, c), max(lost[c], l)
			}
			row("truncations", cuts, lost)
		})
	}
}
