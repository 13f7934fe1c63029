package provstore_test

// Allocation gate for the checkpoint encoder, next to the engine's
// 0-allocs/op read gates (internal/engine/alloc_test.go). A checkpoint
// encodes a pinned view beside the writers, so what it allocates lands
// in the heap they allocate from and in the collector they share. It is
// one streaming pass: the id index (a 32-bit word per node id in use),
// the string and prefix dictionaries, one bufio buffer, one row buffer
// and a window of 256 rows — about half a byte per byte of a version 2
// snapshot, where the row list, the buffered node table and the row ids
// of the two-pass writer took two, on a file two thirds larger.

import (
	"context"
	"runtime"
	"testing"

	"hyperprov/internal/engine"
	"hyperprov/internal/provstore"
	"hyperprov/internal/tpcc"
)

type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

func TestSaveSnapshotAllocsPerByteWritten(t *testing.T) {
	g := tpcc.NewGenerator(tpcc.Scaled(0.02))
	initial, err := g.InitialDatabase()
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.ModeNormalForm, initial, engine.WithAutoIndex(4))
	if err := e.ApplyAll(context.Background(), g.Transactions(2200)); err != nil {
		t.Fatal(err)
	}
	if rows := e.NumRows(); rows < 50_000 {
		t.Fatalf("history has %d rows, want at least 50 000", rows)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	var w countingDiscard
	if err := provstore.SaveSnapshot(&w, e); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	allocated := ms.TotalAlloc - before
	t.Logf("%d rows, %d bytes written, %d bytes allocated (%.2f per byte written)",
		e.NumRows(), w.n, allocated, float64(allocated)/float64(w.n))
	// The bound is what the version 2 writer allocated for this pass
	// with the package's other tests before it (472 288 B alone), when
	// it wrote 935 378 bytes: 0.55 per byte. Version 3 writes 768 401
	// bytes for the same state, so the ratio rose with nothing added per
	// byte; the prefix dictionary is a few entries, and the window's
	// tuples became a stride of vals (the writer fits five pages, not
	// six): 509 176 B, 464 640 alone.
	if allocated > 516_824 {
		t.Fatalf("SaveSnapshot allocated %d bytes, want ≤ 516 824", allocated)
	}
}
