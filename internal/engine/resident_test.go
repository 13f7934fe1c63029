package engine_test

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"hyperprov/internal/core"
	"hyperprov/internal/wal"
	"hyperprov/internal/workload"
)

// heapLive reads the live heap after a full collection.
func heapLive() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestResidentBytesPerRow gates what a resident row costs: bulk_scan's
// shape scaled down tenfold — 20 000 rows, 420 transactions of 10
// unindexed single-group selections in batches of 25, a pool of 420 —
// is written to a data directory, checkpointed and closed, and the heap
// a wal.Open of it holds is divided by its 25 381 rows. The intern table is
// reported apart: it is process-global, outlives the store that filled
// it (what the first Close leaves behind is its growth, nodes and their
// extensions alike) and is already full when the directory reopens, so
// what the open holds is the store's own. With 64-byte versions (a row
// and its first version one 128-byte allocation) the store held 290.4 B
// a row, with 32-byte ones (96 bytes together) 258.4, with the values
// kept once, as words, and no tuple in the row (72 bytes together, an
// 80-byte allocation) 162.6, and with the row pointers a column and no
// sequence number in the row (64 bytes together, one 64-byte
// allocation) 145.4, with a row and its first version one 56-byte
// element of the table's record column, no allocation of their own, and
// a row map of 4-byte positions in place of 8-byte pointers 118.5, and
// with a 24-byte row in the record column and each version a 16-byte
// entry of the table's version column (40 bytes together) 104.1, and
// with no 8-byte creation sequence column beside them 96.4; the ceiling
// is 5 % above that. The intern table's growth is gated too, 5 %
// above what a fresh process reads (run with earlier tests it reads
// less: they named these rows already): 302.8 B a row while each
// initial row's annotation was a chained variable with an extension
// record and a name string, 140.9 with range leaves and 32-byte
// extension records.
func TestResidentBytesPerRow(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("heap sizes are taken without the race detector, on the full store")
	}
	const rows, txnsN, batch = 20000, 420, 25
	initial, txns, err := workload.Generate(workload.Config{
		Tuples: rows, Pool: txnsN, Group: 1, Updates: 10 * txnsN, QueriesPerTxn: 10, MergeRatio: 0.1, Seed: 36,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base, nodes := heapLive(), core.InternStats().Nodes
	s, err := wal.Open(dir, wal.WithInitialDatabase(initial))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(txns); i += batch {
		if err := s.ApplyAll(context.Background(), txns[i:min(i+batch, len(txns))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	closed, nodesClosed := heapLive(), core.InternStats().Nodes
	if s, err = wal.Open(dir); err != nil {
		t.Fatal(err)
	}
	open := heapLive()
	n := float64(s.NumRows())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(initial)
	runtime.KeepAlive(txns)
	store := float64(open-closed) / n
	intern := float64(closed-base) / n
	node := unsafe.Sizeof(core.Expr{})
	t.Logf("%0.f rows: the store holds %.1f B a row after wal.Open; the intern table grew %.1f B a row (%d nodes, %.1f B a row at %d B a node)",
		n, store, intern, nodesClosed-nodes, float64(int64(node)*(nodesClosed-nodes))/n, node)
	if grown := core.InternStats().Nodes - nodesClosed; grown != 0 {
		t.Errorf("reopening the directory interned %d new nodes, want none", grown)
	}
	if store > 96.4*1.05 {
		t.Errorf("a resident row costs %.1f B after wal.Open, want at most %.1f", store, 96.4*1.05)
	}
	if intern > 140.9*1.05 {
		t.Errorf("the intern table grew %.1f B a row, want at most %.1f", intern, 140.9*1.05)
	}
}
