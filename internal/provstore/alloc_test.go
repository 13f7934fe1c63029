package provstore_test

// Allocation gate for the checkpoint encoder, next to the engine's
// 0-allocs/op read gates (internal/engine/alloc_test.go). A checkpoint
// encodes a pinned view beside the writers, so what it allocates lands
// in the heap they allocate from and in the collector they share. It is
// one streaming pass: the id index (a 32-bit word per node id in use),
// the string dictionary, one bufio buffer, one row buffer and a window
// of 256 rows — under half a byte per byte of snapshot, where the row
// list, the buffered node table and the row ids of the two-pass writer
// took two, on a file two thirds larger.

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
	perByte := float64(ms.TotalAlloc-before) / float64(w.n)
	t.Logf("%d rows, %d bytes written, %.2f bytes allocated per byte written", e.NumRows(), w.n, perByte)
	// 0.47 alone, 0.51 after the package's other tests have spread the
	// process's node ids over more pages of the index.
	if perByte > 0.6 {
		t.Fatalf("SaveSnapshot allocated %.2f bytes per byte written, want ≤ 0.6", perByte)
	}
}
