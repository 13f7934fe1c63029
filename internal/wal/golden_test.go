package wal_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/parser"
	"hyperprov/internal/provstore"
	"hyperprov/internal/wal"
)

// The golden data directory (testdata/golden: META, the initial
// checkpoint and one segment) pins the WAL bytes: whatever the current
// code writes for the golden operations must be that META and that
// segment, whose transactions are schema-relative records but for the
// one that fails. testdata/golden-type1 is the same directory as the
// self-describing record form wrote it, before transactions were logged
// schema-relative; it is never rewritten, and recovery must replay
// both, through the in-place decoder, to the state the operations
// leave. Their checkpoint is in version 1 of the snapshot format, which
// nothing writes any more and every recovery must keep loading: it
// stays as it is, and must hold the state of the checkpoint the current
// code writes. Rewrite testdata/golden's META and segment only for a
// deliberate format change: go test ./internal/wal/ -run
// TestGoldenDataDirectory -update-golden.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from what the current code writes")

const goldenSQL = `
BEGIN load;
INSERT INTO Parts VALUES (1, 'bolt', 0.25);
INSERT INTO Parts VALUES (2, 'nut', 1e-7);
INSERT INTO Parts VALUES (3, 'it''s a "washer"', -1234567.25);
INSERT INTO Stock VALUES ('north', 1, 40);
INSERT INTO Stock VALUES ('south', 1, 7);
INSERT INTO Stock VALUES ('south', 3, 0);
COMMIT;
UPDATE Parts SET price = 0.5, name = 'bolt M4' WHERE id = 1;
BEGIN prune;
DELETE FROM Stock WHERE site <> 'north' AND site != 'east' AND qty = 0;
UPDATE Stock SET qty = 41 WHERE site = 'north' AND part <> 2;
DELETE FROM Parts;
COMMIT;
BEGIN empty;
COMMIT;
`

const goldenDatalog = `
Parts+,restock(4, "naïve rivet", 2.5):-
StockM,restock(where, 1, n -> "west", 1, n):-
Stock-,audit([s != "west", s != "north"], p, [q != 7]):-
PartsM,audit(i, nm, pr, i, "renamed", pr):-
`

func goldenSchema() *db.Schema {
	return db.MustSchema(
		db.MustRelationSchema("Parts",
			db.Attribute{Name: "id", Kind: db.KindInt},
			db.Attribute{Name: "name", Kind: db.KindString},
			db.Attribute{Name: "price", Kind: db.KindFloat}),
		db.MustRelationSchema("Stock",
			db.Attribute{Name: "site", Kind: db.KindString},
			db.Attribute{Name: "part", Kind: db.KindInt},
			db.Attribute{Name: "qty", Kind: db.KindInt}),
	)
}

// writeGolden runs the golden operations — every record type, both
// front ends' variable names, disequalities, attribute conditions, a
// transaction that fails half-way — against a fresh store in dir and
// returns the state they leave.
func writeGolden(t *testing.T, dir string) []byte {
	t.Helper()
	s := goldenSchema()
	initial := db.NewDatabase(s)
	for _, row := range []db.Tuple{{db.S("east"), db.I(2), db.I(12)}, {db.S("east"), db.I(9), db.I(9)}} {
		if err := initial.InsertTuple("Stock", row); err != nil {
			t.Fatal(err)
		}
	}
	st, err := wal.Open(dir, wal.WithMode(engine.ModeNormalForm), wal.WithInitialDatabase(initial))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sql, err := parser.ParseSQLLog(s, goldenSQL)
	if err != nil {
		t.Fatal(err)
	}
	datalog, err := parser.ParseDatalogLog(s, goldenDatalog)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyAll(ctx, append(sql, datalog...)); err != nil {
		t.Fatal(err)
	}
	ext := db.Transaction{Label: "ext", Updates: []db.Update{
		db.Delete("Stock", db.Pattern{db.AnyVar("a"), db.AnyVar("b"), db.AnyVar("c")}).WithConds(db.AttrCond{Left: 1, Right: 2}),
		db.Delete("Nowhere", db.Pattern{db.AnyVar("x")}),
	}}
	if err := st.ApplyTransaction(&ext); err == nil {
		t.Fatal("a delete from an unknown relation applied")
	}
	ann := core.PlusI(core.Var(core.TupleAnnot("r1")), core.Var(core.QueryAnnot("load")))
	if err := st.RestoreRow("Parts", db.Tuple{db.I(5), db.S("restored"), db.F(1)}, ann); err != nil {
		t.Fatal(err)
	}
	if err := st.BuildIndex("Stock", "site"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.MinimizeAll(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st.DropIndex("Stock", "site"); err != nil {
		t.Fatal(err)
	}
	state := snapshotOf(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return state
}

func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if e.Name() == "LOCK" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

func TestGoldenDataDirectory(t *testing.T) {
	golden := filepath.Join("testdata", "golden")
	fresh := t.TempDir()
	state := writeGolden(t, fresh)
	written := readDir(t, fresh)
	const ckpt = "checkpoint-0000000000000000.ckpt"
	if *updateGolden {
		for name, data := range written {
			if name == ckpt {
				continue
			}
			if err := os.WriteFile(filepath.Join(golden, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := readDir(t, golden)
	if len(want) != 3 || len(written) != len(want) {
		t.Fatalf("golden directory has %d files, the same operations wrote %d; want META, a checkpoint and a segment", len(want), len(written))
	}
	for name, data := range want {
		if name == ckpt {
			if !bytes.HasPrefix(data, []byte("HPRV1\n")) || !bytes.HasPrefix(written[name], []byte("HPRV3\n")) {
				t.Errorf("%s: want the golden one in version 1 and the current code writing version 3", name)
			}
			old, err := provstore.LoadSnapshot(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%s: the golden checkpoint does not load: %v", name, err)
			}
			cur, err := provstore.LoadSnapshot(bytes.NewReader(written[name]))
			if err != nil {
				t.Fatal(err)
			}
			requireSameBytes(t, "golden checkpoint against the one the current code writes", snapshotOf(t, cur), snapshotOf(t, old))
			continue
		}
		if !bytes.Equal(written[name], data) {
			t.Errorf("%s: the current code writes %d bytes that differ from the golden %d", name, len(written[name]), len(data))
		}
	}
	requireRecovers(t, golden, state)
}

// TestGoldenType1Directory: the directory the self-describing record
// form wrote recovers, unedited, to the state the golden operations
// leave.
func TestGoldenType1Directory(t *testing.T) {
	requireRecovers(t, filepath.Join("testdata", "golden-type1"), writeGolden(t, t.TempDir()))
}

// TestGoldenV2Directory: testdata/golden-v2 is the golden directory as
// the version 2 writer left it after the golden operations, a reopen
// and a checkpoint — META, a version 2 checkpoint of the whole state
// (range leaves, a variable restored by name, query labels, normal-form
// sums) and an empty segment. It is never rewritten. Recovery loads it,
// unedited, to the state the operations leave: nothing replays, the
// live database has no difference, and the recovered store saves the
// version 3 bytes of the store that ran the operations.
func TestGoldenV2Directory(t *testing.T) {
	dir := filepath.Join("testdata", "golden-v2")
	const ckpt = "checkpoint-000000000000000b.ckpt"
	files := readDir(t, dir)
	if len(files) != 3 || !bytes.HasPrefix(files[ckpt], []byte("HPRV2\n")) {
		t.Fatalf("golden-v2 holds %d files; want META, a version 2 %s and a segment", len(files), ckpt)
	}
	src := t.TempDir()
	state := writeGolden(t, src)
	ran, err := wal.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer ran.Close()
	replayed := t.TempDir()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(replayed, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := wal.Open(replayed)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if n := st.Stats().Replayed; n != 0 {
		t.Errorf("recovery replayed %d records, want none", n)
	}
	if d := engine.LiveDB(st).Diff(engine.LiveDB(ran)); d != "" {
		t.Errorf("recovered golden-v2 differs from the golden operations' state: %s", d)
	}
	requireSameBytes(t, "recovered golden-v2", state, snapshotOf(t, st))
}

// requireRecovers opens a copy of the data directory golden and
// requires the golden operations' 11 records replayed to state.
func requireRecovers(t *testing.T, golden string, state []byte) {
	t.Helper()
	replayed := t.TempDir()
	for name, data := range readDir(t, golden) {
		if err := os.WriteFile(filepath.Join(replayed, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := wal.Open(replayed)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if n := st.Stats().Replayed; n != 11 {
		t.Errorf("recovery replayed %d records, want 11", n)
	}
	requireSameBytes(t, "recovered "+golden, state, snapshotOf(t, st))
}

// TestSnapshotBytesAcrossBoots: one state reached three ways — an engine
// booted from CSV files, one loaded from the snapshot of that boot, and
// a store recovered from its data directory (a checkpoint and the log),
// each then or before applying the same transactions — saves the same
// bytes.
func TestSnapshotBytesAcrossBoots(t *testing.T) {
	initial, txns := smallWorkload(t)
	ctx := context.Background()
	schema := initial.Schema()
	files := map[string][]byte{}
	for _, rel := range schema.Names() {
		var buf bytes.Buffer
		if err := db.WriteCSV(&buf, initial.Instance(rel)); err != nil {
			t.Fatal(err)
		}
		files[rel] = buf.Bytes()
	}
	csv, err := engine.Load(engine.ModeNormalForm, schema, func(emit func(db.RowBatch) error) error {
		for _, rel := range schema.Names() {
			if err := db.CSVRows(schema.Relation(rel), files[rel], emit); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := provstore.LoadSnapshot(bytes.NewReader(snapshotOf(t, csv)))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := wal.Open(dir, wal.WithMode(engine.ModeNormalForm), wal.WithInitialDatabase(initial), wal.WithSegmentSize(2048))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []engine.DB{csv, loaded, st} {
		if err := e.ApplyAll(ctx, txns); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	want := snapshotOf(t, csv)
	requireSameBytes(t, "snapshot-loaded engine", want, snapshotOf(t, loaded))
	requireSameBytes(t, "recovered store", want, snapshotOf(t, recovered))
}
