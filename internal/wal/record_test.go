package wal

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/parser"
	"hyperprov/internal/provstore"
	"hyperprov/internal/workload"
)

// encodeTxn renders one transaction's self-describing payload into a
// buffer of its own.
func encodeTxn(t *db.Transaction) []byte {
	var e recEncoder
	e.txn(t)
	return e.buf.Bytes()
}

// encodeAs renders t as the store logs it against schema: schema-relative
// when it validates, self-describing when it does not.
func encodeAs(schema *db.Schema, t *db.Transaction) []byte {
	if t.Validate(schema) != nil {
		return encodeTxn(t)
	}
	var e recEncoder
	e.txnIn(schema, t)
	return e.buf.Bytes()
}

// decodeRecord parses one record payload into a record the collector
// owns: a builder that is never reset, and schema for the
// schema-relative form (nil decodes only the self-describing one).
func decodeRecord(data []byte, schema *db.Schema) (*Record, error) {
	rec, err := (&recDecoder{buf: data, b: new(db.Builder), schema: schema}).record()
	if err != nil {
		return nil, err
	}
	return &rec, nil
}

// codecSchema is the golden directory's schema.
func codecSchema(t testing.TB) *db.Schema {
	meta, err := readMeta(OSFS{}, filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	return meta.schema
}

// TestTxnCodecRoundTrip encodes transactions as the store logs them —
// generated hyperplane transactions, both front ends' logs, hand-built
// disequalities, attribute conditions and floats of every form, and
// ones that fail — and checks decode reproduces them field for field:
// schema-relative when they validate, self-describing when they do not.
func TestTxnCodecRoundTrip(t *testing.T) {
	_, generated, err := workload.Generate(workload.Config{
		Tuples: 100, Pool: 20, Group: 2, Updates: 200,
		QueriesPerTxn: 4, MergeRatio: 0.3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Mix in attribute conditions and disequalities, which the
	// generator does not emit.
	generated = append(generated, db.Transaction{Label: "ext", Updates: []db.Update{
		{
			Kind: db.OpDelete, Rel: "R",
			Sel: db.Pattern{
				db.AnyVar("a"), db.VarNotEq("b", db.I(3), db.I(9)),
				db.Const(db.S("alpha")), db.AnyVar("d"), db.AnyVar("e"),
			},
			Conds: []db.AttrCond{{Left: 1, Right: 3}, {Left: 0, Right: 3, Neq: true}},
		},
	}})
	schema := codecSchema(t)
	sql, err := parser.ParseSQLLog(schema, `
UPDATE Parts SET price = 0.5, name = 'bolt M4' WHERE id = 1;
DELETE FROM Stock WHERE site <> 'north' AND site != 'east' AND qty = 0;
UPDATE Stock SET qty = 41 WHERE site = 'north' AND part <> 2;
DELETE FROM Parts;`)
	if err != nil {
		t.Fatal(err)
	}
	datalog, err := parser.ParseDatalogLog(schema, `
Parts+,restock(4, "naïve rivet", 2.5):-
StockM,restock(where, 1, n -> "west", 1, n):-
Stock-,audit([s != "west", s != "north"], p, [q != 7]):-
PartsM,audit(i, nm, pr, i, "renamed", pr):-`)
	if err != nil {
		t.Fatal(err)
	}
	// A float of each form: n, n/100, and raw for what neither gives
	// back bit for bit (-0, a NaN's payload, infinities, 0.1+0.2).
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	floats := []float64{3, -7, 0.25, -1234567.25, 1e-7, math.Copysign(0, -1), nan, math.Inf(-1), 0.1 + 0.2, 1 << 60}
	hand := db.Transaction{Label: "floats"}
	for i, f := range floats {
		hand.Updates = append(hand.Updates, db.Insert("Parts", db.Tuple{db.I(int64(i)), db.S(""), db.F(f)}))
	}
	hand.Updates = append(hand.Updates,
		db.Modify("Parts", db.Pattern{db.AnyVar("_"), db.Const(db.S("")), db.VarNotEq("price", db.F(nan), db.F(math.Copysign(0, -1)))},
			[]db.SetClause{db.Keep(), db.Keep(), db.SetTo(db.F(-0.01))}),
		db.Delete("Stock", db.Pattern{db.VarNotEq("site", db.S("east")), db.AnyVar(""), db.AnyVar("Qty")}).
			WithConds(db.AttrCond{Left: 1, Right: 2}, db.AttrCond{Left: 2, Right: 1, Neq: true}))
	failing := []db.Transaction{
		{Label: "unknown", Updates: []db.Update{db.Delete("Nowhere", db.Pattern{db.AnyVar("x")})}},
		{Label: "repeats", Updates: []db.Update{db.Delete("Stock", db.Pattern{db.AnyVar("x"), db.AnyVar("x"), db.AnyVar("y")})}},
		{Label: "kind", Updates: []db.Update{db.Insert("Parts", db.Tuple{db.S("1"), db.S("bolt"), db.F(1)})}},
	}
	cases := []struct {
		schema *db.Schema
		txns   []db.Transaction
	}{
		{workload.Schema(), generated},
		{schema, sql},
		{schema, datalog},
		{schema, []db.Transaction{hand}},
		{schema, failing},
	}
	for c, tc := range cases {
		for i := range tc.txns {
			txn := &tc.txns[i]
			payload := encodeAs(tc.schema, txn)
			rec, err := decodeRecord(payload, tc.schema)
			if err != nil {
				t.Fatalf("case %d txn %d: decode: %v", c, i, err)
			}
			want := recSchemaTxn
			if txn.Validate(tc.schema) != nil {
				want = recTxn
				if !bytes.Equal(payload, encodeTxn(txn)) {
					t.Fatalf("case %d txn %d: a failing transaction is not logged self-describing", c, i)
				}
			} else if named := encodeTxn(txn); len(payload) >= len(named) {
				t.Errorf("case %d txn %d: schema-relative record of %d bytes, self-describing %d", c, i, len(payload), len(named))
			}
			if rec.Type != want {
				t.Fatalf("case %d txn %d: type %d, want %d", c, i, rec.Type, want)
			}
			if !reflect.DeepEqual(*rec.Txn, *txn) {
				t.Fatalf("case %d txn %d round trip differs:\n want %+v\n got  %+v", c, i, *txn, *rec.Txn)
			}
			if _, err := decodeRecord(payload, nil); want == recSchemaTxn && err == nil {
				t.Fatalf("case %d txn %d: a schema-relative record decodes without a schema", c, i)
			}
		}
	}
	// The failing transaction of the golden operations is the same
	// bytes in both golden directories: a transaction that fails is
	// logged as it always was.
	find := func(dir string) []byte {
		seg, err := os.ReadFile(filepath.Join("testdata", dir, segName(0)))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range segmentRecords(t, seg) {
			if rec, err := decodeRecord(p, schema); err == nil && rec.Txn != nil && rec.Txn.Label == "ext" {
				return p
			}
		}
		t.Fatalf("%s holds no transaction ext", dir)
		return nil
	}
	if cur, old := find("golden"), find("golden-type1"); cur[0] != recTxn || !bytes.Equal(cur, old) {
		t.Fatalf("the failing golden transaction is logged as %x, was %x", cur, old)
	}
}

// TestDecodeRecordHostile feeds truncations and bit flips of valid
// payloads, in either form, to the decoder: it must return errors,
// never panic or allocate absurdly.
func TestDecodeRecordHostile(t *testing.T) {
	_, txns, err := workload.Generate(workload.Config{
		Tuples: 50, Pool: 10, Group: 2, Updates: 40,
		QueriesPerTxn: 3, MergeRatio: 0.3, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	schema := workload.Schema()
	r := rand.New(rand.NewSource(5))
	for i := range txns {
		for _, payload := range [][]byte{encodeTxn(&txns[i]), encodeAs(schema, &txns[i])} {
			for cut := 0; cut < len(payload); cut += 1 + len(payload)/17 {
				_, _ = decodeRecord(payload[:cut], schema)
			}
			for trial := 0; trial < 32; trial++ {
				mut := append([]byte(nil), payload...)
				mut[r.Intn(len(mut))] ^= byte(1 << r.Intn(8))
				_, _ = decodeRecord(mut, schema)
			}
		}
	}
}

// recoverSegment recovers a store whose log is the one segment img and
// reports the records it holds after recovery, the bytes recovery
// truncated and the segment's length after it.
func recoverSegment(t *testing.T, img []byte) (records uint64, truncated, size int64, err error) {
	t.Helper()
	dir := t.TempDir()
	if err := writeMeta(OSFS{}, dir, engine.ModeNormalForm, workload.Schema(), false); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(0))
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	defer st.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	return stats.LSN, stats.TruncatedTail, fi.Size(), nil
}

// TestScanSegmentClassification checks recovery's torn-vs-mid-log rules
// on hand-built segment images.
func TestScanSegmentClassification(t *testing.T) {
	recA := encodeTxn(&db.Transaction{Label: "a"})
	recB := encodeTxn(&db.Transaction{Label: "b"})
	recC := encodeTxn(&db.Transaction{Label: "c"})
	full := appendFrame(appendFrame(appendFrame(nil, recA), recB), recC)
	oneLen := int64(len(appendFrame(nil, recA)))
	// torn reports a recovery that kept n records and cut the rest.
	torn := func(t *testing.T, img []byte, n uint64) {
		t.Helper()
		records, truncated, size, err := recoverSegment(t, img)
		if err != nil || records != n || size != int64(n)*oneLen || truncated != int64(len(img))-size {
			t.Fatalf("recovered %d records, truncated %d bytes to %d, %v; want %d records in %d bytes", records, truncated, size, err, n, int64(n)*oneLen)
		}
	}

	t.Run("clean", func(t *testing.T) { torn(t, full, 3) })
	t.Run("short-header", func(t *testing.T) { torn(t, full[:oneLen+3], 1) })
	t.Run("short-payload", func(t *testing.T) { torn(t, full[:2*oneLen-2], 1) })
	t.Run("crc-bad-final", func(t *testing.T) {
		img := append([]byte(nil), full...)
		img[len(img)-1] ^= 0xff
		torn(t, img, 2)
	})
	t.Run("crc-bad-midlog", func(t *testing.T) {
		img := append([]byte(nil), full...)
		img[oneLen+frameHeaderSize] ^= 0xff // corrupt record B's payload
		if _, _, _, err := recoverSegment(t, img); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "intact records after it") {
			t.Fatalf("crc-bad mid-log: %v, want ErrCorrupt for a damaged record with intact records after it", err)
		}
	})
}

// TestGroupedReplayEqualsRecordByRecord: recovery replays a log in
// groups, its transactions through ApplyBatch; on both golden data
// directories, and on a generated log with failing transactions among
// the others, the state it recovers is the snapshot a replay of one
// record at a time reaches, byte for byte.
func TestGroupedReplayEqualsRecordByRecord(t *testing.T) {
	initial, txns, err := workload.Generate(workload.Config{
		Tuples: 300, Pool: 30, Group: 3, Updates: 150,
		QueriesPerTxn: 3, MergeRatio: 0.2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	generated := t.TempDir()
	st, err := Open(generated, WithInitialDatabase(initial))
	if err != nil {
		t.Fatal(err)
	}
	bad := db.Transaction{Label: "bad", Updates: []db.Update{txns[0].Updates[0], db.Delete("Nowhere", db.Pattern{db.AnyVar("x")})}}
	for i := range txns {
		if i%20 == 7 {
			_ = st.ApplyTransaction(&bad)
		}
		if err := st.ApplyTransaction(&txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snapshot := func(e provstore.Source) []byte {
		var buf bytes.Buffer
		if err := provstore.SaveSnapshot(&buf, e); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, src := range []string{filepath.Join("testdata", "golden"), filepath.Join("testdata", "golden-type1"), generated} {
		dir := t.TempDir()
		for _, name := range []string{metaName, ckptName(0), segName(0)} {
			data, err := os.ReadFile(filepath.Join(src, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		ckpt, _ := os.ReadFile(filepath.Join(dir, ckptName(0)))
		eng, err := loadCheckpoint(ckpt, 0)
		if err != nil {
			t.Fatal(err)
		}
		one := &Store{Handle: new(engine.Handle)}
		one.Swap(eng)
		seg, _ := os.ReadFile(filepath.Join(dir, segName(0)))
		for i, p := range segmentRecords(t, seg) {
			var g replayGroup
			g.add(p)
			if err := one.replayLocked(&g, ErrCorrupt, false); err != nil {
				t.Fatalf("%s: record %d: %v", src, i, err)
			}
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		grouped, failed := snapshot(st), st.Stats().ReplayFailed
		st.Close()
		if src == generated && failed != 3 {
			t.Fatalf("the generated log replayed with %d failures, want 3", failed)
		}
		if !bytes.Equal(grouped, snapshot(one)) || failed != one.replayFailed.Load() {
			t.Fatalf("%s: grouped replay gives %d snapshot bytes and %d failures, one record at a time %d and %d",
				src, len(grouped), failed, len(snapshot(one)), one.replayFailed.Load())
		}
	}
}

// TestReplayGroupEmptyPayload: a replication record message whose
// payload is empty after its LSN ends the follower's group and fails it
// as corrupt, without a panic.
func TestReplayGroupEmptyPayload(t *testing.T) {
	var g replayGroup
	g.add(encodeTxn(&db.Transaction{Label: "a"}))
	if g.full() {
		t.Fatal("a group of one transaction is full")
	}
	g.add(nil)
	if !g.full() {
		t.Fatal("an empty payload does not end the group")
	}
	st := &Store{Handle: new(engine.Handle)}
	st.Swap(engine.NewEmpty(engine.ModeNormalForm, codecSchema(t)))
	if err := st.replayLocked(&g, ErrStreamCorrupt, false); !errors.Is(err, ErrStreamCorrupt) || !strings.Contains(err.Error(), "record 1") {
		t.Fatalf("replaying an empty record: %v, want ErrStreamCorrupt at record 1", err)
	}
}
