package wal_test

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
