package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/provstore"
	"hyperprov/internal/tpcc"
	"hyperprov/internal/workload"
)

// WithShards is deprecated: it sets nothing. TestWithShardsIsInert (at
// the module root) checks that through the engine, the facade and a
// store; the TestSharded* tests hold an engine opened with the option to
// one opened without it on each workload the shard counts were checked
// on: the same rows in the same order, the same interned annotation
// pointers and the same snapshot bytes, at every committed epoch. The
// engine without the option keeps its own independent references (the
// paper's literals, the plain-database oracles, the provstore goldens).
const oldShards = 8

// streamedRow captures one streamed row: relation, key and annotation,
// in the engine's deterministic iteration order.
type streamedRow struct {
	rel string
	key string
	ann *core.Expr
}

func streamRows(e engine.Reader) []streamedRow {
	var out []streamedRow
	e.Rows(func(rel string, t db.Tuple, ann *core.Expr) {
		out = append(out, streamedRow{rel, t.Key(), ann})
	})
	return out
}

// diffStreams asserts the equivalence contract between two engines:
// same rows, same order, structurally identical annotations.
func diffStreams(t *testing.T, label string, want, got []streamedRow) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: row counts differ: want %d, got %d", label, len(want), len(got))
	}
	for i := range want {
		a, b := want[i], got[i]
		if a.rel != b.rel || a.key != b.key {
			t.Fatalf("%s: row %d order differs: want %s/%s, got %s/%s",
				label, i, a.rel, a.key, b.rel, b.key)
		}
		if !a.ann.Equal(b.ann) {
			t.Fatalf("%s: row %d (%s/%s) annotations differ:\n  want %v\n  got  %v",
				label, i, a.rel, a.key, a.ann, b.ann)
		}
	}
}

// diffPointers tightens diffStreams for normal-form engines, whose
// annotations are hash-consed: equal means the same node.
func diffPointers(t *testing.T, label string, want, got []streamedRow) {
	t.Helper()
	for i := range want {
		if want[i].ann != got[i].ann {
			t.Fatalf("%s: row %d (%s/%s) holds an equal annotation behind another pointer", label, i, want[i].rel, want[i].key)
		}
	}
}

func snapshotOf(t *testing.T, e engine.Reader) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := provstore.SaveSnapshot(&buf, e); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// diffEveryEpoch holds an engine to a reference engine that applied the
// same log at every committed epoch, not only the last: the views pinned
// at epoch k stream the same rows in the same order with identical
// annotations — the same interned pointer in normal-form mode — and save
// byte-identical snapshots.
func diffEveryEpoch(t *testing.T, label string, ref, e engine.DB) {
	t.Helper()
	last := ref.Horizon()
	if got := e.Horizon(); got != last {
		t.Fatalf("%s: horizon epoch %d, reference %d", label, got, last)
	}
	for k := uint64(0); k <= last; k++ {
		at := fmt.Sprintf("%s, epoch %d", label, k)
		a, b := ref.At(k), e.At(k)
		want, got := streamRows(a), streamRows(b)
		diffStreams(t, at, want, got)
		if ref.Mode() == engine.ModeNormalForm {
			diffPointers(t, at, want, got)
		}
		if !bytes.Equal(snapshotOf(t, a), snapshotOf(t, b)) {
			t.Fatalf("%s: snapshot bytes differ from the reference", at)
		}
	}
}

// inertOn applies txns, in each mode, to an engine built from initial
// with the option and to one built without it, and holds the two to each
// other at every epoch.
func inertOn(t *testing.T, initial *db.Database, txns []db.Transaction, modes ...engine.Mode) {
	t.Helper()
	for _, mode := range modes {
		ref := engine.New(mode, initial)
		e := engine.New(mode, initial, engine.WithShards(oldShards))
		for _, d := range []*engine.Engine{ref, e} {
			if err := d.ApplyAll(context.Background(), txns); err != nil {
				t.Fatal(err)
			}
		}
		diffEveryEpoch(t, mode.String(), ref, e)
	}
}

var bothModes = []engine.Mode{engine.ModeNaive, engine.ModeNormalForm}

// TestShardedMatchesSingleRandom: random databases and random hyperplane
// transactions (the same generator the oracle tests use, so selections
// mix constants, ≠ constraints and free variables).
func TestShardedMatchesSingleRandom(t *testing.T) {
	r := rand.New(rand.NewSource(501))
	for trial := 0; trial < 30; trial++ {
		initial := randDB(r, 2+r.Intn(10))
		inertOn(t, initial, randTxns(r, 1+r.Intn(3), 1+r.Intn(5)), bothModes...)
	}
}

// TestShardedMatchesSinglePinned runs the fully pinned workload: every
// selection is a point lookup.
func TestShardedMatchesSinglePinned(t *testing.T) {
	initial, txns, err := workload.GeneratePinned(workload.Config{Tuples: 200, Updates: 300, QueriesPerTxn: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	inertOn(t, initial, txns, bothModes...)
}

// TestShardedMatchesSingleWorkload runs the paper's synthetic workload
// (group selections over the numeric column, nothing pinned).
func TestShardedMatchesSingleWorkload(t *testing.T) {
	cfg := workload.Default(0.002)
	cfg.QueriesPerTxn = 5
	initial, txns, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inertOn(t, initial, txns, bothModes...)
}

// TestShardedMatchesSingleTPCC runs the TPC-C-derived log (multi-update
// transactions mixing pinned and hyperplane selections across several
// relations).
func TestShardedMatchesSingleTPCC(t *testing.T) {
	g := tpcc.NewGenerator(tpcc.Scaled(0.02))
	initial, err := g.InitialDatabase()
	if err != nil {
		t.Fatal(err)
	}
	inertOn(t, initial, g.TransactionsForQueries(150), engine.ModeNormalForm)
}

// TestShardedSnapshotRoundTrip: a snapshot restored with the option
// re-saves to the original bytes — at the end and at every epoch on the
// way, next to a restore without it.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	cfg := workload.Config{Tuples: 150, Updates: 200, QueriesPerTxn: 3, Seed: 11}
	initial, txns, err := workload.GeneratePinned(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.ModeNormalForm, initial)
	if err := e.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	orig := snapshotOf(t, e)
	single, err := provstore.LoadSnapshot(bytes.NewReader(orig))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, snapshotOf(t, single)) {
		t.Fatal("save→load→save not byte-idempotent")
	}
	restored, err := provstore.LoadSnapshot(bytes.NewReader(orig), engine.WithShards(oldShards))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, snapshotOf(t, restored)) {
		t.Fatal("with the option: save→load→save not byte-idempotent")
	}
	diffEveryEpoch(t, "restored", single, restored)
}

// TestShardedApplyAllCancellation: a canceled context stops the batched
// apply with context.Canceled, and the engine stays usable.
func TestShardedApplyAllCancellation(t *testing.T) {
	cfg := workload.Config{Tuples: 100, Updates: 200, QueriesPerTxn: 1, Seed: 13}
	initial, txns, err := workload.GeneratePinned(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := engine.New(engine.ModeNormalForm, initial, engine.WithShards(oldShards))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sh.ApplyAll(ctx, txns); err == nil {
		t.Fatal("ApplyAll with canceled context returned nil")
	}
	// The engine remains usable after a canceled batch.
	if err := sh.ApplyAll(context.Background(), txns[:5]); err != nil {
		t.Fatal(err)
	}
}

// TestShardedConcurrentReadersDuringApply hammers the read surface while
// ApplyAll ingests a batch on another goroutine — run with -race.
// Afterwards the state must match an engine that applied the same log
// undisturbed.
func TestShardedConcurrentReadersDuringApply(t *testing.T) {
	cfg := workload.Config{Tuples: 300, Updates: 400, QueriesPerTxn: 2, Seed: 17}
	initial, txns, err := workload.GeneratePinned(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := engine.New(engine.ModeNormalForm, initial, engine.WithShards(oldShards))

	var probe db.Tuple
	sh.EachRow("R", func(tp db.Tuple, ann *core.Expr) {
		if probe == nil {
			probe = tp.Clone() // EachRow lends tp
		}
	})
	if probe == nil {
		t.Fatal("no probe tuple")
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					f()
				}
			}
		}()
	}
	allTrue := func(core.Annot) bool { return true }
	reader(func() {
		n := 0
		sh.EachRow("R", func(db.Tuple, *core.Expr) { n++ })
		if n == 0 {
			t.Error("EachRow saw an empty relation")
		}
	})
	reader(func() {
		d, err := engine.BoolRestrictParallel(context.Background(), sh, allTrue, 4)
		if err != nil {
			t.Error(err)
			return
		}
		if d.NumTuples() == 0 {
			t.Error("live database empty mid-apply")
		}
	})
	reader(func() {
		_ = sh.NumRows()
		_ = sh.ProvSize()
		_ = sh.SupportSize()
	})

	if err := sh.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()

	single := engine.New(engine.ModeNormalForm, initial)
	if err := single.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	diffStreams(t, "post-stress", streamRows(single), streamRows(sh))
}

// TestShardedMinimizeAll: minimization with the option gives the same
// size and annotations as without it.
func TestShardedMinimizeAll(t *testing.T) {
	r := rand.New(rand.NewSource(509))
	initial := randDB(r, 8)
	txns := randTxns(r, 3, 4)
	var sizes []int64
	var streams [][]streamedRow
	for _, opts := range [][]engine.Option{nil, {engine.WithShards(oldShards)}} {
		e := engine.New(engine.ModeNormalForm, initial, opts...)
		if err := e.ApplyAll(context.Background(), txns); err != nil {
			t.Fatal(err)
		}
		n, err := e.MinimizeAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		sizes, streams = append(sizes, n), append(streams, streamRows(e))
	}
	if sizes[0] != sizes[1] {
		t.Errorf("MinimizeAll size %d, without the option %d", sizes[1], sizes[0])
	}
	diffStreams(t, "minimized", streams[0], streams[1])
}
