package engine

import (
	"context"
	"testing"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/upstruct"
	"hyperprov/internal/workload"
)

// TestRestoreRowLiveMatchesTreeWalk: a restored row's membership is its
// annotation's core.Expr.Live, memoized once per DAG node; it must be what the
// per-row tree walk it replaced computed — upstruct.Eval in the Boolean
// structure with every annotation true — for interned NF annotations and
// for the naive engine's raw copy-on-write trees alike.
func TestRestoreRowLiveMatchesTreeWalk(t *testing.T) {
	allTrue := func(core.Annot) bool { return true }
	for seed := int64(1); seed <= 4; seed++ {
		cfg := workload.Config{Tuples: 80, Pool: 12, Group: 3, Updates: 70, QueriesPerTxn: 4, MergeRatio: 0.4, Seed: seed}
		initial, txns, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{ModeNaive, ModeNormalForm} {
			src := New(mode, initial)
			if err := src.ApplyAll(context.Background(), txns); err != nil {
				t.Fatal(err)
			}
			dst := New(mode, db.NewDatabase(initial.Schema()))
			want := make(map[string]bool)
			dead := 0
			src.Rows(func(rel string, tu db.Tuple, ann *core.Expr) {
				if err := dst.RestoreRow(rel, tu, ann); err != nil {
					t.Fatal(err)
				}
				live := upstruct.Eval(ann, upstruct.Bool, allTrue)
				want[rel+"/"+tu.Key()] = live
				if !live {
					dead++
				}
			})
			if dead == 0 || dead == len(want) {
				t.Fatalf("seed %d, %v: %d of %d rows dead — the history does not exercise both values", seed, mode, dead, len(want))
			}
			if cap(dst.touched) != 0 {
				t.Fatalf("seed %d, %v: restores without a hook built a touched list", seed, mode)
			}
			for _, rel := range dst.schema.Names() {
				tbl := dst.tables[rel]
				for _, r := range rowsOf(tbl, tbl.cols.len()) {
					if got, tu := tbl.at(r, dst.Horizon()).base.Live(), tbl.tuple(r, nil); got != want[rel+"/"+tu.Key()] {
						t.Fatalf("seed %d, %v: %s%v restored live=%v, tree walk says %v", seed, mode, rel, tu, got, !got)
					}
				}
			}
		}
	}
}
