package engine

import (
	"fmt"
	"testing"

	"hyperprov/internal/db"
)

func seqTestSchema(t *testing.T) *db.Schema {
	t.Helper()
	return db.MustSchema(db.MustRelationSchema("R",
		db.Attribute{Name: "K", Kind: db.KindInt},
		db.Attribute{Name: "V", Kind: db.KindInt},
	))
}

// collectSeqs maps every stored row's sequence number, as the sequence
// column holds it, to the row, failing on a duplicate.
func collectSeqs(t *testing.T, e *Engine) map[uint64]string {
	t.Helper()
	seqs := make(map[uint64]string)
	for _, rel := range e.schema.Names() {
		tbl := e.tables[rel]
		for p, r := range rowsOf(tbl, tbl.cols.len()) {
			seq := tbl.cols.seqs.at(p)
			if prev, dup := seqs[seq]; dup {
				t.Fatalf("rows %s and %s/%s share seq %#x", prev, rel, tbl.tuple(r, nil), seq)
			}
			seqs[seq] = rel + "/" + tbl.tuple(r, nil).String()
		}
	}
	return seqs
}

// TestRowSeqUniqueness is the satellite regression for the
// version-ordering bug: an engine applied without a batch dispatcher
// (direct ApplyTransaction calls, no ApplyAll) used to leave every row
// at sequence 0, which collapses MVCC validity intervals. Every live
// row — across initial load and any mix of apply paths — must carry a
// distinct sequence number, and its oldest version must be born at it.
// The shards=N subtests open the engine with the deprecated
// WithShards(N), which must leave every number as it is.
func TestRowSeqUniqueness(t *testing.T) {
	schema := seqTestSchema(t)
	initial := db.NewDatabase(schema)
	for i := int64(0); i < 4; i++ {
		if err := initial.InsertTuple("R", db.Tuple{db.I(i), db.I(0)}); err != nil {
			t.Fatal(err)
		}
	}
	txn := func(i int64) db.Transaction {
		return db.Transaction{
			Label: fmt.Sprintf("t%d", i),
			Updates: []db.Update{
				db.Insert("R", db.Tuple{db.I(100 + i), db.I(1)}),
				db.Insert("R", db.Tuple{db.I(200 + i), db.I(2)}),
			},
		}
	}
	var one map[uint64]string
	for _, shards := range []int{1, 2, 3, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e := New(ModeNormalForm, initial, WithShards(shards))
			for i := int64(0); i < 6; i++ {
				tx := txn(i)
				if err := e.ApplyTransaction(&tx); err != nil {
					t.Fatal(err)
				}
			}
			seqs := collectSeqs(t, e)
			if where := ListsOutOfSeqOrder(e); where != "" {
				t.Fatalf("a table is out of sequence order: %s", where)
			}
			if want := 4 + 2*6; len(seqs) != want {
				t.Fatalf("got %d distinct seqs, want %d rows", len(seqs), want)
			}
			// The initial load is epoch 0; every transaction's rows must sit
			// in a later epoch, not at the zero value.
			later := 0
			for s := range seqs {
				if SeqEpoch(s) > 0 {
					later++
				}
			}
			if want := 2 * 6; later != want {
				t.Fatalf("%d rows in post-initial epochs, want %d (direct applies left rows at epoch 0)", later, want)
			}
			if one == nil {
				one = seqs
			}
			for s, who := range seqs {
				if one[s] != who {
					t.Fatalf("seq %#x is %s here and %q without the option", s, who, one[s])
				}
			}
		})
	}
}
