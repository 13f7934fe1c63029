package wal_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"testing"

	"hyperprov/internal/engine"
	"hyperprov/internal/iofault"
	"hyperprov/internal/wal"
)

// faultWorkload drives one store lifetime over the injected filesystem:
// bootstrap, batched and single applies, a manual checkpoint, more
// applies, close, with the cadence starting a background checkpoint in
// each half. It waits for those where they start, so the filesystem sees
// the same operations in the same order on every run and the Nth is the
// same fault site. It returns how many transactions were acknowledged
// (applied without error) and the first write-path error.
func faultWorkload(dir string, fs *iofault.FS) (acked int, firstErr error) {
	initial, txns, err := tinyWorkload()
	if err != nil {
		return 0, err
	}
	st, err := wal.Open(dir,
		wal.WithMode(engine.ModeNormalForm),
		wal.WithInitialDatabase(initial),
		wal.WithSegmentSize(2048),
		wal.WithCheckpointEvery(9),
		wal.WithFS(fs),
	)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	defer st.WaitCheckpoint()
	record := func(err error) bool {
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return false
		}
		acked++
		return true
	}
	half := len(txns) / 2
	for i := 0; i < half; i += 8 {
		end := i + 8
		if end > half {
			end = half
		}
		if err := st.ApplyAll(context.Background(), txns[i:end]); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			// acked is unknowable for a failed batch: recompute below
			// from the store's own LSN, which never exceeds what the
			// engine applied.
			acked = int(st.Stats().LSN)
			return acked, firstErr
		}
		acked = end
		st.WaitCheckpoint()
	}
	if err := st.Checkpoint(); err != nil && firstErr == nil {
		firstErr = err
	}
	for i := half; i < len(txns); i++ {
		if !record(st.ApplyTransaction(&txns[i])) {
			break
		}
		st.WaitCheckpoint()
	}
	return acked, firstErr
}

// typedError reports whether err is one of the package's typed
// failures or the injected fault itself — the only errors the sweep
// accepts.
func typedError(err error) bool {
	return err == nil ||
		errors.Is(err, iofault.ErrInjected) ||
		errors.Is(err, wal.ErrReadOnly) ||
		errors.Is(err, wal.ErrCorrupt) ||
		errors.Is(err, wal.ErrClosed) ||
		os.IsNotExist(err)
}

// TestFaultInjectionSweep runs the workload once per possible injection
// point for every operation class and failure mode, requiring that
// every failure surfaces as a typed error or read-only degradation —
// no panics — and that a faultless reopen of the directory recovers a
// state containing every acknowledged transaction.
func TestFaultInjectionSweep(t *testing.T) {
	// Size the sweep with a fault-free run.
	baseDir := t.TempDir()
	counting := iofault.Wrap(wal.OSFS{})
	acked, err := faultWorkload(baseDir, counting)
	if err != nil {
		t.Fatalf("fault-free run errored: %v", err)
	}
	initial, txns, err := tinyWorkload()
	if err != nil {
		t.Fatal(err)
	}
	if acked != len(txns) {
		t.Fatalf("fault-free run acked %d of %d", acked, len(txns))
	}

	type class struct {
		op   iofault.Op
		mode iofault.Mode
	}
	classes := []class{
		{iofault.OpWrite, iofault.Fail},
		{iofault.OpWrite, iofault.ShortWrite},
		{iofault.OpWrite, iofault.Torn},
		{iofault.OpSync, iofault.Fail},
		{iofault.OpCreate, iofault.Fail},
		{iofault.OpRename, iofault.Fail},
		{iofault.OpSyncDir, iofault.Fail},
		{iofault.OpTruncate, iofault.Fail},
		{iofault.OpRemove, iofault.Fail},
		{iofault.OpReadFile, iofault.Fail},
	}
	for _, c := range classes {
		total := counting.Count(c.op)
		if total == 0 {
			continue
		}
		// Sweep a bounded, deterministic subset: every point for small
		// counts, a stride for large ones, always including first and
		// last.
		stride := 1
		if total > 40 {
			stride = total / 40
		}
		for nth := 1; nth <= total; nth += stride {
			name := fmt.Sprintf("%s/%d/nth=%d", c.op, c.mode, nth)
			t.Run(name, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic under fault %s: %v", name, r)
					}
				}()
				dir := t.TempDir()
				fs := iofault.Wrap(wal.OSFS{})
				fs.Inject(iofault.Fault{Op: c.op, Nth: nth, Mode: c.mode})
				acked, ferr := faultWorkload(dir, fs)
				if !typedError(ferr) {
					t.Fatalf("untyped error under fault: %v", ferr)
				}
				if !fs.Tripped() {
					// The fault point was past the workload's ops
					// (shorter run due to earlier behavior); fine.
					return
				}
				// Reopen faultlessly, with the bootstrap options in case
				// the faulted run never completed its bootstrap. Open
				// may fail only with a typed error; if it succeeds, the
				// recovered prefix must contain every acknowledged
				// transaction and match the oracle.
				re, err := wal.Open(dir,
					wal.WithMode(engine.ModeNormalForm),
					wal.WithInitialDatabase(initial),
				)
				if err != nil {
					if !typedError(err) {
						t.Fatalf("untyped reopen error: %v", err)
					}
					return
				}
				defer re.Close()
				lsn := int(re.Stats().LSN)
				if lsn < acked {
					t.Fatalf("silent loss: %d acked, %d recovered", acked, lsn)
				}
				if lsn > len(txns) {
					t.Fatalf("recovered %d records, only %d exist", lsn, len(txns))
				}
				oracle := oracleAt(t, engine.ModeNormalForm, initial, txns, lsn)
				requireSameBytes(t, "fault recovery", snapshotOf(t, oracle), snapshotOf(t, re))
			})
		}
	}
}

// TestReadOnlyDegradation pins the degradation contract: after an
// injected sync failure, the failing write returns the cause, later
// writes return ErrReadOnly, reads keep answering, and Close releases
// the lock.
func TestReadOnlyDegradation(t *testing.T) {
	initial, txns, err := tinyWorkload()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fs := iofault.Wrap(wal.OSFS{})
	st, err := wal.Open(dir,
		wal.WithMode(engine.ModeNormalForm),
		wal.WithInitialDatabase(initial),
		wal.WithFS(fs),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyTransaction(&txns[0]); err != nil {
		t.Fatal(err)
	}
	fs.Inject(iofault.Fault{Op: iofault.OpSync, Match: "wal-", Nth: 1, Mode: iofault.Fail})
	err = st.ApplyTransaction(&txns[1])
	if !errors.Is(err, wal.ErrReadOnly) || !errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("failing write: err = %v, want ErrReadOnly wrapping the injected cause", err)
	}
	if !st.ReadOnly() {
		t.Fatal("store did not degrade to read-only")
	}
	if err := st.ApplyTransaction(&txns[2]); !errors.Is(err, wal.ErrReadOnly) {
		t.Fatalf("write after degradation: err = %v, want ErrReadOnly", err)
	}
	if err := st.Checkpoint(); !errors.Is(err, wal.ErrReadOnly) {
		t.Fatalf("checkpoint after degradation: err = %v, want ErrReadOnly", err)
	}
	if _, err := st.MinimizeAll(context.Background()); !errors.Is(err, wal.ErrReadOnly) {
		t.Fatalf("minimize after degradation: err = %v, want ErrReadOnly", err)
	}
	// Reads still serve the in-memory state, which includes txns[0].
	if st.NumRows() == 0 {
		t.Fatal("reads failed after degradation")
	}
	stats := st.Stats()
	if !stats.ReadOnly || stats.ReadOnlyCause == "" {
		t.Fatalf("stats do not report degradation: %+v", stats)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The acked prefix (txns[0]) must survive. The failed append's
	// record may survive too — it reached the OS before the fsync
	// failed — so the recovered LSN is 1 or 2, never 0, and the state
	// must match the oracle at whatever prefix recovered.
	re, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	lsn := int(re.Stats().LSN)
	if lsn < 1 || lsn > 2 {
		t.Fatalf("recovered LSN %d, want 1 or 2", lsn)
	}
	oracle := oracleAt(t, engine.ModeNormalForm, initial, txns, lsn)
	requireSameBytes(t, "degraded prefix", snapshotOf(t, oracle), snapshotOf(t, re))
}
