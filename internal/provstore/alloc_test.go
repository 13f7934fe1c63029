package provstore_test

// Allocation gate for the checkpoint encoder, next to the engine's
// 0-allocs/op read gates (internal/engine/alloc_test.go). A checkpoint
// runs under the store's write lock, so what it allocates is paid by
// the transaction that triggered it: the row list, the id-indexed node
// table (a 32-bit word per node id in use), the node table's buffer and
// the row ids — two bytes per byte of snapshot (four when the table was
// a pointer-keyed map), not the tens the fingerprint buckets and
// per-node child slices used to cost.

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
	if perByte > 3 {
		t.Fatalf("SaveSnapshot allocated %.2f bytes per byte written, want ≤ 3", perByte)
	}
}
