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

// creationEpochs maps every stored row to its creation epoch, the epoch
// of its oldest version, failing on a row with no version.
func creationEpochs(t *testing.T, e *Engine) map[string]uint32 {
	t.Helper()
	out := make(map[string]uint32)
	for _, rel := range e.schema.Names() {
		tbl := e.tables[rel]
		for _, r := range rowsOf(tbl, tbl.cols.len()) {
			born, ok := creationEpoch(tbl, r)
			if !ok {
				t.Fatalf("row %s/%s has no version", rel, tbl.tuple(r, nil))
			}
			out[rel+"/"+tbl.tuple(r, nil).String()] = born
		}
	}
	return out
}

// TestRowSeqUniqueness is the regression for the version-ordering bug
// where an engine applied without a batch dispatcher (direct
// ApplyTransaction calls, no ApplyAll) left every row in epoch 0, which
// collapses MVCC validity intervals. Visibility rests on each row's
// oldest version being born in the epoch that created it: the initial
// load's rows in epoch 0, transaction i's rows in epoch i, none of them
// in epoch 0, creation epochs never decreasing with position, and the
// view at epoch k holding exactly the rows created up to k.
func TestRowSeqUniqueness(t *testing.T) {
	schema := seqTestSchema(t)
	initial := db.NewDatabase(schema)
	want := make(map[string]uint32)
	for i := int64(0); i < 4; i++ {
		tu := db.Tuple{db.I(i), db.I(0)}
		if err := initial.InsertTuple("R", tu); err != nil {
			t.Fatal(err)
		}
		want["R/"+tu.String()] = 0
	}
	const txns = 6
	t.Run("shards=1", func(t *testing.T) {
		e := New(ModeNormalForm, initial)
		for i := int64(0); i < txns; i++ {
			tx := db.Transaction{Label: fmt.Sprintf("t%d", i)}
			for _, tu := range []db.Tuple{{db.I(100 + i), db.I(1)}, {db.I(200 + i), db.I(2)}} {
				tx.Updates = append(tx.Updates, db.Insert("R", tu))
				want["R/"+tu.String()] = uint32(i + 1)
			}
			if err := e.ApplyTransaction(&tx); err != nil {
				t.Fatal(err)
			}
		}
		if where := ListsOutOfCreationOrder(e); where != "" {
			t.Fatalf("a table is out of creation order: %s", where)
		}
		got := creationEpochs(t, e)
		if len(got) != len(want) {
			t.Fatalf("%d rows, want %d", len(got), len(want))
		}
		for who, epoch := range want {
			if born, ok := got[who]; !ok || born != epoch {
				t.Fatalf("row %s created in epoch %d (stored: %v), want %d", who, born, ok, epoch)
			}
		}
		for k := uint64(0); k <= txns; k++ {
			if n, want := e.At(k).NumRows(), 4+2*int(k); n != want {
				t.Fatalf("epoch %d: %d rows visible, want %d", k, n, want)
			}
		}
	})
}
