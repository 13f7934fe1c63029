package wal

import (
	"bytes"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"testing"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
)

// FuzzDecodeRecord feeds arbitrary payloads, seeded with the records of
// the golden segments — the schema-relative form, packed and plain, and
// the self-describing one — and with packed frames' payloads, valid and
// hostile, which are not records, to the record decoder, with the
// golden schema.
// It must not panic; it must not allocate beyond a multiple of the
// payload's size whatever counts the payload claims; what it accepts as
// a transaction must survive encode and decode unchanged, encoded as the
// store would log it; and decoding into a recycled builder — the replay
// loops' way — must give the record a fresh decode gives, before and
// after a poisoned Reset. And whatever decodes into a transaction
// applies to an engine over the golden schema — rows in both relations —
// without a panic: the decoder bounds counts, not arities or kinds of
// the self-describing form, which are the engine's check.
func FuzzDecodeRecord(f *testing.F) {
	meta, err := readMeta(OSFS{}, filepath.Join("testdata", "golden"))
	if err != nil {
		f.Fatal(err)
	}
	for _, dir := range []string{"golden", "golden-plain", "golden-type1"} {
		seg, err := OSFS{}.ReadFile(filepath.Join("testdata", dir, segName(0)))
		if err != nil {
			f.Fatal(err)
		}
		records := segmentRecords(f, seg)
		if len(records) == 0 {
			f.Fatalf("the %s segment holds no records", dir)
		}
		for _, payload := range records {
			f.Add(payload)
		}
	}
	f.Add([]byte{recTxn, 1, 'x', 0xff, 0xff, 0x3f})                       // a million updates in no bytes
	f.Add([]byte{recTxn, 0, 1, byte(db.OpDelete), 1, 'R', 0xff, 0xff, 3}) // an arity of 65 535 likewise
	f.Add([]byte{recTxn, 0xff, 0xff, 0xff, 0x07, 'x'})                    // a 16 MB label
	f.Add([]byte{recSchemaTxn, 0, 2, byte(db.OpInsert), 0, 2})            // a row that ends early
	f.Add([]byte{recSchemaTxn, 0, 1, byte(db.OpDelete), 0xff, 0xff, 3})   // a relation the schema lacks
	records := goldenRecords(f)
	f.Add(packedPayload(len(records), len(packedBody(records)), deflated(packedBody(records))))
	for _, p := range hostilePacks(records) {
		f.Add(p)
	}

	rows := db.Transaction{Label: "rows", Updates: []db.Update{
		db.Insert("Parts", db.Tuple{db.I(1), db.S("bolt"), db.F(0.25)}),
		db.Insert("Stock", db.Tuple{db.S("north"), db.I(1), db.I(40)}),
		db.Insert("Stock", db.Tuple{db.S("south"), db.I(1), db.I(7)}),
	}}
	db.PoisonOnReset.Store(true)
	f.Cleanup(func() { db.PoisonOnReset.Store(false) })
	var replay db.Builder
	allocated := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, err := decodeRecord(data, meta.schema)
		if err != nil {
			fresh = nil
		}
		// Again, now that the strings in it are interned: what is
		// allocated is the decoder's own. An update is 120 bytes, a term
		// 64, a value 16, chunks double, and no count claims more
		// elements than there are bytes left. (A restore record's
		// annotation is provstore's to bound. The metric is the
		// process's and moves a span at a time: hence the 64 kB, and a
		// reading that is the decoder's repeats.)
		for try, limit := 0, uint64(1<<16+1024*len(data)); len(data) > 0 && data[0] != recRestore; try++ {
			metrics.Read(allocated)
			before := allocated[0].Value.Uint64()
			_, _ = decodeRecord(data, meta.schema)
			metrics.Read(allocated)
			got := allocated[0].Value.Uint64() - before
			if got <= limit {
				break
			}
			if try == 3 {
				t.Fatalf("decoding %d bytes allocates %d, want at most %d", len(data), got, limit)
			}
		}
		for round := 0; round < 2; round++ {
			rec, err := (&recDecoder{buf: data, b: &replay, schema: meta.schema}).record()
			if (err == nil) != (fresh != nil) || (err == nil && !reflect.DeepEqual(&rec, fresh)) {
				t.Fatalf("round %d: into a recycled builder: %+v, %v\nfresh: %+v", round, rec, err, fresh)
			}
			replay.Reset()
		}
		if fresh == nil || fresh.Txn == nil {
			return
		}
		encoded := encodeAs(meta.schema, fresh.Txn)
		again, err := decodeRecord(encoded, meta.schema)
		if err != nil || !reflect.DeepEqual(again.Txn, fresh.Txn) {
			t.Fatalf("decode(encode(t)) = %+v, %v\nt = %+v", again, err, fresh)
		}
		if !bytes.Equal(encodeAs(meta.schema, again.Txn), encoded) {
			t.Fatal("encode(decode(encode(t))) differs from encode(t)")
		}
		e := engine.NewEmpty(meta.mode, meta.schema)
		if err := e.ApplyTransaction(&rows); err != nil {
			t.Fatal(err)
		}
		_ = e.ApplyTransaction(fresh.Txn)
	})
}
