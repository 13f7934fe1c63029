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
	"hyperprov/internal/upstruct"
	"hyperprov/internal/workload"
)

// shardCounts are the partitions held against the one-shard engine,
// which keeps its own independent references (the paper's literals, the
// plain-database oracles, the provstore goldens).
var shardCounts = []int{2, 3, 4, 8}

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

// diffStreams asserts the equivalence contract across shard counts:
// same rows, same order, structurally identical annotations.
func diffStreams(t *testing.T, label string, single, sharded []streamedRow) {
	t.Helper()
	if len(single) != len(sharded) {
		t.Fatalf("%s: row counts differ: single %d, sharded %d", label, len(single), len(sharded))
	}
	for i := range single {
		a, b := single[i], sharded[i]
		if a.rel != b.rel || a.key != b.key {
			t.Fatalf("%s: row %d order differs: single %s/%s, sharded %s/%s",
				label, i, a.rel, a.key, b.rel, b.key)
		}
		if !a.ann.Equal(b.ann) {
			t.Fatalf("%s: row %d (%s/%s) annotations differ:\n  single  %v\n  sharded %v",
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

// diffEveryEpoch holds an engine of several shards to the one-shard
// engine that applied the same log at every committed epoch, not only
// the last: the views pinned at epoch k stream the same rows in the same
// order with identical annotations — the same interned pointer in
// normal-form mode — and save byte-identical snapshots.
func diffEveryEpoch(t *testing.T, label string, single, sharded engine.DB) {
	t.Helper()
	last := engine.SeqEpoch(single.Horizon())
	if got := engine.SeqEpoch(sharded.Horizon()); got != last {
		t.Fatalf("%s: horizon epoch %d, single %d", label, got, last)
	}
	for k := uint64(0); k <= last; k++ {
		at := fmt.Sprintf("%s, epoch %d", label, k)
		a, b := single.At(engine.EpochSeq(k)), sharded.At(engine.EpochSeq(k))
		want, got := streamRows(a), streamRows(b)
		diffStreams(t, at, want, got)
		if single.Mode() == engine.ModeNormalForm {
			diffPointers(t, at, want, got)
		}
		if !bytes.Equal(snapshotOf(t, a), snapshotOf(t, b)) {
			t.Fatalf("%s: snapshot bytes differ from single engine", at)
		}
	}
}

// TestShardedMatchesSingleRandom is the core differential test: random
// databases and random hyperplane transactions (the same generator the
// oracle tests use, so selections mix constants, ≠ constraints and free
// variables) must leave a sharded engine row-for-row identical to the
// single engine for every shard count, in both modes, including the
// serialized snapshot bytes.
func TestShardedMatchesSingleRandom(t *testing.T) {
	r := rand.New(rand.NewSource(501))
	for trial := 0; trial < 30; trial++ {
		initial := randDB(r, 2+r.Intn(10))
		txns := randTxns(r, 1+r.Intn(3), 1+r.Intn(5))
		for _, mode := range []engine.Mode{engine.ModeNaive, engine.ModeNormalForm} {
			single := engine.New(mode, initial)
			if err := single.ApplyAll(context.Background(), txns); err != nil {
				t.Fatal(err)
			}
			want := streamRows(single)
			wantSnap := snapshotOf(t, single)
			for _, n := range shardCounts {
				sh := engine.New(mode, initial, engine.WithShards(n))
				if sh.NumShards() != n {
					t.Fatalf("NumShards = %d, want %d", sh.NumShards(), n)
				}
				if err := sh.ApplyAll(context.Background(), txns); err != nil {
					t.Fatal(err)
				}
				label := mode.String()
				diffStreams(t, label, want, streamRows(sh))
				diffEveryEpoch(t, fmt.Sprintf("trial %d, %s, shards=%d", trial, label, n), single, sh)
				if !bytes.Equal(wantSnap, snapshotOf(t, sh)) {
					t.Fatalf("trial %d, %s, shards=%d: snapshot bytes differ from single engine",
						trial, label, n)
				}
				if got, want := sh.NumRows(), single.NumRows(); got != want {
					t.Fatalf("NumRows: sharded %d, single %d", got, want)
				}
				if got, want := sh.ProvSize(), single.ProvSize(); got != want {
					t.Fatalf("ProvSize: sharded %d, single %d", got, want)
				}
				if !engine.LiveDB(sh).Equal(engine.LiveDB(single)) {
					t.Fatalf("trial %d, %s, shards=%d: live databases diverge", trial, label, n)
				}
			}
		}
	}
}

// TestShardedMatchesSinglePinned runs the fully pinned workload — the
// one the sharded benchmarks use — and checks both the equivalence
// contract and the routing statistics: with one update per transaction
// every transaction is pinned, so nothing fans out.
func TestShardedMatchesSinglePinned(t *testing.T) {
	cfg := workload.Config{Tuples: 200, Updates: 300, QueriesPerTxn: 1, Seed: 7}
	initial, txns, err := workload.GeneratePinned(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []engine.Mode{engine.ModeNaive, engine.ModeNormalForm} {
		single := engine.New(mode, initial)
		if err := single.ApplyAll(context.Background(), txns); err != nil {
			t.Fatal(err)
		}
		want := streamRows(single)
		wantSnap := snapshotOf(t, single)
		// One shard is every transaction's destination: all routed.
		if st := single.Stats(); st.Shards != 1 || st.Routed != uint64(len(txns)) || st.Rendezvous+st.FanOut != 0 {
			t.Errorf("%s: one shard reports %+v for %d transactions", mode, st, len(txns))
		}
		for _, n := range shardCounts {
			sh := engine.New(mode, initial, engine.WithShards(n))
			if err := sh.ApplyAll(context.Background(), txns); err != nil {
				t.Fatal(err)
			}
			diffStreams(t, mode.String(), want, streamRows(sh))
			if !bytes.Equal(wantSnap, snapshotOf(t, sh)) {
				t.Fatalf("%s, shards=%d: snapshot bytes differ", mode, n)
			}
			diffEveryEpoch(t, fmt.Sprintf("%s, shards=%d", mode, n), single, sh)
			st := sh.Stats()
			if st.FanOut != 0 {
				t.Errorf("%s, shards=%d: pinned workload fanned out %d transactions", mode, n, st.FanOut)
			}
			if st.Routed+st.Rendezvous != uint64(len(txns)) {
				t.Errorf("%s, shards=%d: routed %d + rendezvous %d ≠ %d transactions",
					mode, n, st.Routed, st.Rendezvous, len(txns))
			}
			if st.Routed == 0 {
				t.Errorf("%s, shards=%d: no transaction took the single-shard fast path", mode, n)
			}
			rows := 0
			for _, c := range st.RowsPerShard {
				rows += c
			}
			if rows != sh.NumRows() {
				t.Errorf("%s, shards=%d: RowsPerShard sums to %d, NumRows is %d", mode, n, rows, sh.NumRows())
			}
		}
	}
}

// TestShardedMatchesSingleWorkload runs the paper's synthetic workload
// (group selections over the numeric column — nothing is pinned, so
// every transaction fans out) through Open and checks the contract plus
// the valuation surface: Specialize in the bool and set structures.
func TestShardedMatchesSingleWorkload(t *testing.T) {
	cfg := workload.Default(0.002)
	cfg.QueriesPerTxn = 5
	initial, txns, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []engine.Mode{engine.ModeNaive, engine.ModeNormalForm} {
		single := engine.Open(mode, initial)
		if n := single.(*engine.Engine).NumShards(); n != 1 {
			t.Fatalf("Open without WithShards built %d shards", n)
		}
		if err := single.ApplyAll(context.Background(), txns); err != nil {
			t.Fatal(err)
		}
		want := streamRows(single)
		boolEnv := func(a core.Annot) bool { return a.Name != "q1" }
		setEnv := func(a core.Annot) upstruct.Set { return upstruct.NewSet(a.Name) }
		var wantBool []bool
		engine.Specialize[bool](single, upstruct.Bool, boolEnv, func(rel string, tp db.Tuple, v bool) {
			wantBool = append(wantBool, v)
		})
		var wantSets []upstruct.Set
		engine.Specialize[upstruct.Set](single, upstruct.Sets, setEnv, func(rel string, tp db.Tuple, v upstruct.Set) {
			wantSets = append(wantSets, v)
		})
		for _, n := range shardCounts {
			sh := engine.Open(mode, initial, engine.WithShards(n))
			if got := sh.(*engine.Engine).NumShards(); got != n {
				t.Fatalf("Open with WithShards(%d) built %d shards", n, got)
			}
			if err := sh.ApplyAll(context.Background(), txns); err != nil {
				t.Fatal(err)
			}
			diffStreams(t, mode.String(), want, streamRows(sh))
			diffEveryEpoch(t, fmt.Sprintf("%s, shards=%d", mode, n), single, sh)
			i := 0
			engine.Specialize[bool](sh, upstruct.Bool, boolEnv, func(rel string, tp db.Tuple, v bool) {
				if i < len(wantBool) && v != wantBool[i] {
					t.Fatalf("shards=%d: bool specialization diverges at row %d", n, i)
				}
				i++
			})
			if i != len(wantBool) {
				t.Fatalf("shards=%d: bool specialization visited %d rows, want %d", n, i, len(wantBool))
			}
			j := 0
			engine.Specialize[upstruct.Set](sh, upstruct.Sets, setEnv, func(rel string, tp db.Tuple, v upstruct.Set) {
				if j < len(wantSets) && !v.Equal(wantSets[j]) {
					t.Fatalf("shards=%d: set specialization diverges at row %d", n, j)
				}
				j++
			})
			if j != len(wantSets) {
				t.Fatalf("shards=%d: set specialization visited %d rows, want %d", n, j, len(wantSets))
			}
		}
	}
}

// TestShardedMatchesSingleTPCC runs the TPC-C-derived log (realistic
// transaction shapes: multi-update transactions mixing pinned and
// hyperplane selections across several relations) through the same
// differential check.
func TestShardedMatchesSingleTPCC(t *testing.T) {
	g := tpcc.NewGenerator(tpcc.Scaled(0.02))
	initial, err := g.InitialDatabase()
	if err != nil {
		t.Fatal(err)
	}
	txns := g.TransactionsForQueries(150)
	single := engine.New(engine.ModeNormalForm, initial)
	if err := single.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	want := streamRows(single)
	wantSnap := snapshotOf(t, single)
	for _, n := range shardCounts {
		sh := engine.New(engine.ModeNormalForm, initial, engine.WithShards(n))
		if err := sh.ApplyAll(context.Background(), txns); err != nil {
			t.Fatal(err)
		}
		diffStreams(t, "tpcc", want, streamRows(sh))
		if !bytes.Equal(wantSnap, snapshotOf(t, sh)) {
			t.Fatalf("shards=%d: TPC-C snapshot bytes differ from single engine", n)
		}
		diffEveryEpoch(t, fmt.Sprintf("tpcc, shards=%d", n), single, sh)
	}
}

// TestShardedSnapshotRoundTrip: snapshots restore into engines of any
// shard count (RestoreRow routes by fingerprint), and re-saving
// reproduces the original bytes — at the end and, one restore epoch per
// row, at every epoch on the way, next to a one-shard restore.
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
		t.Fatal("one shard: save→load→save not byte-idempotent")
	}
	for _, n := range shardCounts {
		restored, err := provstore.LoadSnapshot(bytes.NewReader(orig), engine.WithShards(n))
		if err != nil {
			t.Fatal(err)
		}
		if got := restored.NumShards(); got != n {
			t.Fatalf("LoadSnapshot with WithShards(%d) built %d shards", n, got)
		}
		if !bytes.Equal(orig, snapshotOf(t, restored)) {
			t.Fatalf("shards=%d: save→load→save not byte-idempotent", n)
		}
		diffEveryEpoch(t, fmt.Sprintf("restored, shards=%d", n), single, restored)
	}
}

// TestShardedApplyAllCancellation: a canceled context stops the batched
// apply at a shard boundary with context.Canceled.
func TestShardedApplyAllCancellation(t *testing.T) {
	cfg := workload.Config{Tuples: 100, Updates: 200, QueriesPerTxn: 1, Seed: 13}
	initial, txns, err := workload.GeneratePinned(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := engine.New(engine.ModeNormalForm, initial, engine.WithShards(4))
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

// TestShardedConcurrentReadersDuringApply hammers the read surface of
// an eight-shard engine while ApplyAll ingests a batch on another
// goroutine — run with -race. Afterwards the state must match a single
// engine that applied the same log.
func TestShardedConcurrentReadersDuringApply(t *testing.T) {
	cfg := workload.Config{Tuples: 300, Updates: 400, QueriesPerTxn: 2, Seed: 17}
	initial, txns, err := workload.GeneratePinned(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := engine.New(engine.ModeNormalForm, initial, engine.WithShards(8))

	var probe db.Tuple
	sh.EachRow("R", func(tp db.Tuple, ann *core.Expr) {
		if probe == nil {
			probe = tp
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

// TestShardedMinimizeAll: minimization over shards gives the same sizes
// and annotations as over the single engine.
func TestShardedMinimizeAll(t *testing.T) {
	r := rand.New(rand.NewSource(509))
	initial := randDB(r, 8)
	txns := randTxns(r, 3, 4)
	single := engine.New(engine.ModeNormalForm, initial)
	if err := single.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	wantSize, err := single.MinimizeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range shardCounts {
		sh := engine.New(engine.ModeNormalForm, initial, engine.WithShards(n))
		if err := sh.ApplyAll(context.Background(), txns); err != nil {
			t.Fatal(err)
		}
		gotSize, err := sh.MinimizeAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if gotSize != wantSize {
			t.Errorf("shards=%d: MinimizeAll size %d, single %d", n, gotSize, wantSize)
		}
		diffStreams(t, "minimized", streamRows(single), streamRows(sh))
	}
}
