package engine_test

// Differential tests of the columnar row storage. The engine keeps a
// struct-of-arrays mirror of every table and uses it to prefilter
// write-path scans on =-constant terms; an engine whose scans resolve
// through index posting lists (row-wise) instead must reach the exact
// same state — identical rows, identical interned annotation pointers,
// byte-identical snapshots. Randomized workloads drive both scan paths
// (columnar full scan, posting list) against each other, at every
// committed epoch, and point selections are re-checked against a naive
// row-wise filter of the full relation.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/workload"
)

func columnarConfigs() []workload.Config {
	var cfgs []workload.Config
	for seed := int64(21); seed <= 24; seed++ {
		cfgs = append(cfgs, workload.Config{
			Tuples: 80, Pool: 20, Group: 3, Updates: 50,
			QueriesPerTxn: 4, MergeRatio: 0.4, Seed: seed,
		})
	}
	// Chunk boundaries of the word columns: tables one row short of, at
	// and one row past k full chunks, which the updates then grow across
	// the boundary.
	for k := 1; k <= 2; k++ {
		for d := -1; d <= 1; d++ {
			cfgs = append(cfgs, workload.Config{
				Tuples: k*engine.ColChunk + d, Pool: 20, Group: 3, Updates: 50,
				QueriesPerTxn: 4, MergeRatio: 0.4, Seed: int64(30 + 3*k + d),
			})
		}
	}
	return cfgs
}

func TestColumnarVsRowWiseDifferential(t *testing.T) {
	for ci, cfg := range columnarConfigs() {
		cfg := cfg
		t.Run(fmt.Sprintf("cfg%d_seed%d", ci, cfg.Seed), func(t *testing.T) {
			initial, txns, err := workload.Generate(cfg)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			// colEng scans through the columnar prefilter (no index);
			// idxEng resolves the same selections through posting lists.
			colEng := engine.New(engine.ModeNormalForm, initial)
			idxEng := engine.New(engine.ModeNormalForm, initial)
			if err := idxEng.BuildIndex("R", "grp"); err != nil {
				t.Fatalf("build index: %v", err)
			}
			engines := map[string]engine.DB{"columnar": colEng, "indexed": idxEng}
			for _, e := range engines {
				if err := e.ApplyAll(context.Background(), txns); err != nil {
					t.Fatalf("apply: %v", err)
				}
			}

			// Row-for-row identity including interned annotation pointers.
			colRows, idxRows := collectRows(colEng), collectRows(idxEng)
			if len(colRows) != len(idxRows) {
				t.Fatalf("row counts differ: columnar %d vs indexed %d", len(colRows), len(idxRows))
			}
			for k, ann := range colRows {
				if idxRows[k] != ann {
					t.Fatalf("row %q: columnar and indexed annotations differ", k)
				}
			}

			// Snapshot byte-identity across both scan paths, at the end and
			// at every epoch on the way.
			if !bytes.Equal(snapshotBytes(t, colEng), snapshotBytes(t, idxEng)) {
				t.Fatal("columnar vs indexed snapshots differ")
			}
			diffEveryEpoch(t, "indexed", colEng, idxEng)

			// Point selections against a naive row-wise reference.
			all, err := colEng.Select("R", db.AllPattern(5))
			if err != nil {
				t.Fatalf("select all: %v", err)
			}
			r := rand.New(rand.NewSource(cfg.Seed * 31))
			for trial := 0; trial < 20 && len(all) > 0; trial++ {
				probe := all[r.Intn(len(all))]
				ci := r.Intn(len(probe))
				sel := db.AllPattern(5)
				sel[ci] = db.Const(probe[ci])
				if r.Intn(3) == 0 {
					// Second constant: exercises intersect/filter order.
					cj := r.Intn(len(probe))
					sel[cj] = db.Const(probe[cj])
				}
				var want []db.Tuple
				for _, tu := range all {
					if sel.Matches(tu) {
						want = append(want, tu)
					}
				}
				for name, e := range engines {
					got, err := e.Select("R", sel)
					if err != nil {
						t.Fatalf("%s select: %v", name, err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s: selection %v returned %d tuples, reference %d", name, sel, len(got), len(want))
					}
					for i := range got {
						if !got[i].Equal(want[i]) {
							t.Fatalf("%s: selection %v row %d = %v, reference %v", name, sel, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}
