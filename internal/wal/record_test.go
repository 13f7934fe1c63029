package wal

import (
	"math/rand"
	"reflect"
	"testing"

	"hyperprov/internal/db"
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

// TestScanSegmentClassification checks the torn-vs-mid-log rules on
// hand-built segment images.
func TestScanSegmentClassification(t *testing.T) {
	recA := encodeTxn(&db.Transaction{Label: "a"})
	recB := encodeTxn(&db.Transaction{Label: "b"})
	recC := encodeTxn(&db.Transaction{Label: "c"})
	full := appendFrame(appendFrame(appendFrame(nil, recA), recB), recC)
	oneLen := int64(len(appendFrame(nil, recA)))

	t.Run("clean", func(t *testing.T) {
		sc := scanSegment(full)
		if sc.torn || sc.midlog || len(sc.records) != 3 || sc.goodLen != int64(len(full)) {
			t.Fatalf("clean scan: %+v", sc)
		}
	})
	t.Run("short-header", func(t *testing.T) {
		sc := scanSegment(full[:oneLen+3])
		if !sc.torn || sc.midlog || len(sc.records) != 1 {
			t.Fatalf("short header: %+v", sc)
		}
	})
	t.Run("short-payload", func(t *testing.T) {
		sc := scanSegment(full[:2*oneLen-2])
		if !sc.torn || sc.midlog || len(sc.records) != 1 || sc.goodLen != oneLen {
			t.Fatalf("short payload: %+v", sc)
		}
	})
	t.Run("crc-bad-final", func(t *testing.T) {
		img := append([]byte(nil), full...)
		img[len(img)-1] ^= 0xff
		sc := scanSegment(img)
		if !sc.torn || sc.midlog || len(sc.records) != 2 {
			t.Fatalf("crc-bad final: %+v", sc)
		}
	})
	t.Run("crc-bad-midlog", func(t *testing.T) {
		img := append([]byte(nil), full...)
		img[oneLen+frameHeaderSize] ^= 0xff // corrupt record B's payload
		sc := scanSegment(img)
		if !sc.midlog || len(sc.records) != 1 {
			t.Fatalf("crc-bad mid-log: %+v", sc)
		}
	})
}
