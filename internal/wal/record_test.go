package wal

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/workload"
)

// encodeTxn renders one transaction's payload into a buffer of its own.
func encodeTxn(t *db.Transaction) []byte {
	var e recEncoder
	e.txn(t)
	return e.buf.Bytes()
}

// decodeRecord parses one record payload into a record the collector
// owns: no schema to borrow names from, a builder that is never reset.
func decodeRecord(data []byte) (*Record, error) {
	rec, err := (&recDecoder{buf: data, b: new(db.Builder)}).record()
	if err != nil {
		return nil, err
	}
	return &rec, nil
}

// TestTxnCodecRoundTrip encodes generated hyperplane transactions and
// checks decode reproduces them field for field.
func TestTxnCodecRoundTrip(t *testing.T) {
	_, txns, err := workload.Generate(workload.Config{
		Tuples: 100, Pool: 20, Group: 2, Updates: 200,
		QueriesPerTxn: 4, MergeRatio: 0.3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Mix in attribute conditions and disequalities, which the
	// generator does not emit.
	txns = append(txns, db.Transaction{Label: "ext", Updates: []db.Update{
		{
			Kind: db.OpDelete, Rel: "R",
			Sel: db.Pattern{
				db.AnyVar("a"), db.VarNotEq("b", db.I(3), db.I(9)),
				db.Const(db.S("alpha")), db.AnyVar("d"), db.AnyVar("e"),
			},
			Conds: []db.AttrCond{{Left: 1, Right: 3}, {Left: 0, Right: 3, Neq: true}},
		},
	}})
	for i := range txns {
		payload := encodeTxn(&txns[i])
		rec, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("txn %d: decode: %v", i, err)
		}
		if rec.Type != recTxn {
			t.Fatalf("txn %d: type %d", i, rec.Type)
		}
		if !reflect.DeepEqual(*rec.Txn, txns[i]) {
			t.Fatalf("txn %d round trip differs:\n want %+v\n got  %+v", i, txns[i], *rec.Txn)
		}
	}
}

// TestDecodeRecordHostile feeds truncations and bit flips of valid
// payloads to the decoder: it must return errors, never panic or
// allocate absurdly.
func TestDecodeRecordHostile(t *testing.T) {
	_, txns, err := workload.Generate(workload.Config{
		Tuples: 50, Pool: 10, Group: 2, Updates: 40,
		QueriesPerTxn: 3, MergeRatio: 0.3, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for i := range txns {
		payload := encodeTxn(&txns[i])
		for cut := 0; cut < len(payload); cut += 1 + len(payload)/17 {
			_, _ = decodeRecord(payload[:cut])
		}
		for trial := 0; trial < 32; trial++ {
			mut := append([]byte(nil), payload...)
			mut[r.Intn(len(mut))] ^= byte(1 << r.Intn(8))
			_, _ = decodeRecord(mut)
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
