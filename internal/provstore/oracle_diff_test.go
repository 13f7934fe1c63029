package provstore

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/workload"
)

// Differential tests of SaveSnapshot against the encoder it replaced
// (oracle_test.go), sequential and with worker goroutines: the bytes
// must be the same in every case, because checkpoints, follower
// bootstraps and the golden fixtures written by the old encoder must
// keep loading and re-saving unchanged.

func mustEqualOracle(t *testing.T, name string, src Source) []byte {
	t.Helper()
	var got bytes.Buffer
	if err := SaveSnapshot(&got, src); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, workers := range []int{1, 4} {
		var want bytes.Buffer
		if err := oracleSaveSnapshot(&want, src, workers); err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: snapshot differs from the oracle's (workers=%d): %d vs %d bytes", name, workers, got.Len(), want.Len())
		}
	}
	return got.Bytes()
}

func TestSnapshotMatchesOracleEngines(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cfg := workload.Config{Tuples: 120, Pool: 25, Group: 3, Updates: 150, QueriesPerTxn: 4, MergeRatio: 0.4, Seed: seed}
		initial, txns, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []engine.Mode{engine.ModeNaive, engine.ModeNormalForm} {
			for _, shards := range []int{1, 8} {
				name := fmt.Sprintf("seed=%d/%v/shards=%d", seed, mode, shards)
				e := engine.Open(mode, initial, engine.WithShards(shards))
				if err := e.ApplyAll(context.Background(), txns); err != nil {
					t.Fatal(err)
				}
				if mode == engine.ModeNaive && !hasRawAnnotation(e) {
					t.Fatalf("%s: the copy-on-write naive engine holds no raw tree — the lazy-index path is not covered", name)
				}
				raw := mustEqualOracle(t, name, e)
				// And through a load: RestoreRow'd annotations re-save
				// to the same bytes.
				back, err := LoadSnapshot(bytes.NewReader(raw), engine.WithShards(shards))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(raw, mustEqualOracle(t, name+"/reloaded", back)) {
					t.Fatalf("%s: save→load→save drifted", name)
				}
			}
		}
	}
}

func hasRawAnnotation(e engine.DB) bool {
	raw := false
	e.Rows(func(_ string, _ db.Tuple, ann *core.Expr) {
		raw = raw || !ann.Interned()
	})
	return raw
}

// listSource streams a fixed row list: annotations no engine would
// produce in that order.
type listSource struct {
	schema *db.Schema
	rels   []string
	anns   []*core.Expr
}

func (l listSource) Mode() engine.Mode  { return engine.ModeNaive }
func (l listSource) Schema() *db.Schema { return l.schema }
func (l listSource) NumRows() int       { return len(l.anns) }
func (l listSource) Rows(f func(string, db.Tuple, *core.Expr)) {
	for i, ann := range l.anns {
		f(l.rels[i], db.Tuple{db.I(int64(i))}, ann)
	}
}

// TestSnapshotMatchesOracleMixedRawAndInterned drives the lazily built
// fingerprint index: interned nodes first and their raw copies after
// (the index is built from what the pointer table holds), raw first and
// interned after (the interned node must alias the raw one's id), raw
// parents over interned children, and relations that stay empty.
func TestSnapshotMatchesOracleMixedRawAndInterned(t *testing.T) {
	schema := db.MustSchema(
		db.MustRelationSchema("Empty0", db.Attribute{Name: "a", Kind: db.KindInt}),
		db.MustRelationSchema("A", db.Attribute{Name: "a", Kind: db.KindInt}),
		db.MustRelationSchema("Empty1", db.Attribute{Name: "a", Kind: db.KindInt}),
		db.MustRelationSchema("B", db.Attribute{Name: "a", Kind: db.KindInt}),
		db.MustRelationSchema("Empty2", db.Attribute{Name: "a", Kind: db.KindInt}),
	)
	x, y, p, q := core.TupleVar("x"), core.TupleVar("y"), core.QueryVar("p"), core.QueryVar("q")
	shared := core.DotM(core.Sum(x, y, core.Minus(x, p)), q)
	interned := []*core.Expr{
		x,
		core.PlusI(x, p),
		core.PlusM(core.Minus(x, p), shared),
		core.Minus(shared, core.PlusI(core.Zero(), q)),
		core.Sum(shared, core.PlusM(y, shared), core.Zero()),
	}
	var raws []*core.Expr
	for _, e := range interned {
		raws = append(raws, e.DeepCopy())
	}
	// Raw parents over one raw and one interned child.
	mixed := []*core.Expr{core.PlusM(raws[2], interned[3]), core.Sum(interned[1], raws[4], interned[0])}
	for _, m := range mixed {
		if m.Interned() {
			t.Fatal("a parent of a raw child must be raw")
		}
	}
	orders := map[string][]*core.Expr{
		"interned-then-raw": append(append(append([]*core.Expr{}, interned...), raws...), mixed...),
		"raw-then-interned": append(append(append([]*core.Expr{}, raws...), interned...), mixed...),
		"interleaved":       {raws[0], interned[2], raws[2], mixed[0], interned[4], raws[3], interned[3], mixed[1], raws[4], interned[0]},
		"interned-only":     interned,
		"no-rows":           nil,
	}
	for name, anns := range orders {
		src := listSource{schema: schema, anns: anns}
		for i := range anns {
			rel := "A"
			if i >= len(anns)/2 {
				rel = "B"
			}
			src.rels = append(src.rels, rel)
		}
		raw := mustEqualOracle(t, name, src)
		if _, err := LoadSnapshot(bytes.NewReader(raw)); err != nil {
			t.Fatalf("%s: snapshot does not load: %v", name, err)
		}
	}
	// A source that breaks the relation order is refused, not misfiled.
	bad := listSource{schema: schema, rels: []string{"B", "A"}, anns: interned[:2]}
	if err := SaveSnapshot(new(bytes.Buffer), bad); err == nil {
		t.Fatal("rows out of schema order were accepted")
	}
}

// TestGoldenSnapshotsMatchOracle: the pre-interning fixtures load and
// re-save byte for byte through both encoders.
func TestGoldenSnapshotsMatchOracle(t *testing.T) {
	for _, file := range []string{"pre_interning_naive.snap", "pre_interning_nf.snap"} {
		raw, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		e, err := LoadSnapshot(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, mustEqualOracle(t, file, e)) {
			t.Fatalf("%s: re-saved bytes differ from the fixture", file)
		}
	}
}
