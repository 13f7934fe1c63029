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

// collectSeqs maps every stored row's sequence number to the row,
// failing on a duplicate.
func collectSeqs(t *testing.T, e *Engine) map[uint64]string {
	t.Helper()
	seqs := make(map[uint64]string)
	for _, rel := range e.schema.Names() {
		for _, r := range e.tables[rel].list.snapshot() {
			if prev, dup := seqs[r.seq]; dup {
				t.Fatalf("rows %s and %s/%s share seq %#x", prev, rel, r.tuple, r.seq)
			}
			seqs[r.seq] = rel + "/" + r.tuple.String()
		}
	}
	return seqs
}

// TestRowSeqUniqueness is the satellite regression for the
// version-ordering bug: an engine applied without a batch dispatcher
// (direct ApplyTransaction calls, no ApplyAll) used to leave every row
// at sequence 0, which collapses MVCC validity intervals. Every live
// row — across initial load and any mix of apply paths — must carry a
// distinct sequence number. The shards=N subtests open the engine with
// the deprecated WithShards(N), which must leave every number as it is.
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
				t.Fatalf("a table list is out of sequence order: %s", where)
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

// TestScanAtCompactedIndexFallsBack pins the gating rule that a
// compaction sweep (which drops posting-list entries and with them the
// history they proved) disqualifies an index from historical scans:
// the pinned-horizon planner must take the full-scan path even for
// horizons the index's since watermark covers.
func TestScanAtCompactedIndexFallsBack(t *testing.T) {
	schema := seqTestSchema(t)
	e := New(ModeNormalForm, db.NewDatabase(schema))
	tx := db.Transaction{Label: "t0", Updates: []db.Update{
		db.Insert("R", db.Tuple{db.I(1), db.I(7)}),
		db.Insert("R", db.Tuple{db.I(2), db.I(7)}),
	}}
	if err := e.ApplyTransaction(&tx); err != nil {
		t.Fatal(err)
	}
	if err := e.BuildIndex("R", "V"); err != nil {
		t.Fatal(err)
	}
	sel := db.Pattern{db.AnyVar("x"), db.Const(db.I(7))}
	h := e.Horizon()

	before := e.PlannerStats()
	got, err := e.At(h).Select("R", sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("indexed select: %d rows, want 2", len(got))
	}
	if after := e.PlannerStats(); after.IndexScans != before.IndexScans+1 {
		t.Fatalf("intact index at a covered horizon did not serve the scan: %+v -> %+v", before, after)
	}

	// Simulate a sweep having dropped entries: history above since is
	// gone, so even covered horizons must fall back.
	e.tables["R"].idx.cols[1].compacted = true
	before = e.PlannerStats()
	got, err = e.At(h).Select("R", sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("fallback select: %d rows, want 2", len(got))
	}
	if after := e.PlannerStats(); after.FullScans != before.FullScans+1 {
		t.Fatalf("compacted index was still used for a historical scan: %+v -> %+v", before, after)
	}
}
