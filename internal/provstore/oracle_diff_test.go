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
	"hyperprov/internal/tpcc"
	"hyperprov/internal/workload"
)

// Differential tests of the snapshot format against the frozen version 1
// encoder (oracle_test.go), sequential and with worker goroutines. The
// oracle's bytes are the reference for what a snapshot holds: whatever
// SaveSnapshot writes must load to an engine whose oracle bytes are the
// source's, the oracle's own bytes — what checkpoints, follower
// bootstraps and the golden fixtures held before version 2 — must keep
// loading to the same, and SaveSnapshot's bytes must be a function of
// that state alone.

func oracleBytes(t *testing.T, name string, src Source) []byte {
	t.Helper()
	var want bytes.Buffer
	if err := oracleSaveSnapshot(&want, src, 1); err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	var par bytes.Buffer
	if err := oracleSaveSnapshot(&par, src, 4); err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	if !bytes.Equal(want.Bytes(), par.Bytes()) {
		t.Fatalf("%s: the oracle's bytes depend on its worker count", name)
	}
	return want.Bytes()
}

// mustRoundTripOracle saves src in the current format and returns the
// bytes, having checked that they and the oracle's version 1 bytes both
// load (with opts) to the state src holds — compared as oracle bytes —
// and that the loaded engine saves the same current-format bytes again.
func mustRoundTripOracle(t *testing.T, name string, src Source, opts ...engine.Option) []byte {
	t.Helper()
	var got bytes.Buffer
	if err := SaveSnapshot(&got, src); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !bytes.HasPrefix(got.Bytes(), []byte("HPRV3\n")) {
		t.Fatalf("%s: SaveSnapshot wrote magic %q", name, got.Bytes()[:6])
	}
	want := oracleBytes(t, name, src)
	for version, raw := range map[string][]byte{"v3": got.Bytes(), "v1": want} {
		back, err := LoadSnapshot(bytes.NewReader(raw), opts...)
		if err != nil {
			t.Fatalf("%s: loading %s: %v", name, version, err)
		}
		if hz := back.Horizon(); hz != 1 {
			t.Fatalf("%s: %s loaded in %d epochs, want one restore epoch", name, version, hz)
		}
		if !bytes.Equal(want, oracleBytes(t, name+"/reloaded", back)) {
			t.Fatalf("%s: %s save→load changed the state (as oracle bytes)", name, version)
		}
		var again bytes.Buffer
		if err := SaveSnapshot(&again, back); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), again.Bytes()) {
			t.Fatalf("%s: %s save→load→save drifted: %d vs %d bytes", name, version, got.Len(), again.Len())
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
			name := fmt.Sprintf("seed=%d/%v", seed, mode)
			e := engine.Open(mode, initial)
			if err := e.ApplyAll(context.Background(), txns); err != nil {
				t.Fatal(err)
			}
			if mode == engine.ModeNaive && !hasRawAnnotation(e) {
				t.Fatalf("%s: the copy-on-write naive engine holds no raw tree — the lazy-index path is not covered", name)
			}
			mustRoundTripOracle(t, name, e)
		}
	}
}

// TestSnapshotMatchesOracleTPCC is the same over TPC-C, whose rows are
// what the row encoding was shaped on: versions of one logical row,
// counters, decimal amounts, a few thousand distinct strings.
func TestSnapshotMatchesOracleTPCC(t *testing.T) {
	g := tpcc.NewGenerator(tpcc.Scaled(0.01))
	initial, err := g.InitialDatabase()
	if err != nil {
		t.Fatal(err)
	}
	txns := g.Transactions(300)
	e := engine.Open(engine.ModeNormalForm, initial)
	if err := e.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	raw := mustRoundTripOracle(t, "tpcc", e)
	t.Logf("%d rows: %d bytes, the oracle's version 1 takes %d", e.NumRows(), len(raw), len(oracleBytes(t, "tpcc", e)))
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
		mustRoundTripOracle(t, name, src)
	}
	// A source that breaks the relation order is refused, not misfiled.
	bad := listSource{schema: schema, rels: []string{"B", "A"}, anns: interned[:2]}
	if err := SaveSnapshot(new(bytes.Buffer), bad); err == nil {
		t.Fatal("rows out of schema order were accepted")
	}
}

// TestGoldenSnapshotsMatchOracle: the pre-interning fixtures load and
// re-save byte for byte through the oracle, directly and by way of the
// current format.
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
		if !bytes.Equal(raw, oracleBytes(t, file, e)) {
			t.Fatalf("%s: re-saved bytes differ from the fixture", file)
		}
		mustRoundTripOracle(t, file, e)
	}
}
