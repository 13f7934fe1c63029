package engine_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"hyperprov/internal/benchutil"
	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/upstruct"
	"hyperprov/internal/workload"
)

// whatIfReach is what a what-if's valuation reaches on the state the
// Fig 8 point of the synthetic workload at scale leaves (the §6.2 shape,
// the usage column's engine and victim): for a single-victim deletion
// and for the abort of the first transaction, the rows the generic path
// values (engine.Specialize under upstruct.MapEnv, which BoolRestrict
// and the Section 6 usage walk run) and the rows whose annotation
// mentions a leaf the valuation sets false — the only ones whose value
// can differ from the all-true one — beside the rows stored and the
// histogram of distinct leaves per row.
type whatIfReach struct {
	name                  string
	stored, valued, reach int
	leavesPerRow          map[int]int
}

func measureWhatIfReach(tb testing.TB, scale float64) []whatIfReach {
	tb.Helper()
	cfg := workload.Default(scale)
	series := benchutil.UpdateSeries(scale)
	cfg.Updates = series[len(series)-1]
	initial, txns, err := workload.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	e := engine.New(engine.ModeNormalForm, initial, engine.WithInitialAnnotations(benchutil.KeyAnnot))
	if err := e.ApplyAll(context.Background(), txns); err != nil {
		tb.Fatal(err)
	}
	victim, ok := benchutil.PickVictim(initial, txns, "R")
	if !ok {
		tb.Fatal("no victim")
	}
	// Every row's distinct leaves, once: the histogram is the same for
	// both valuations.
	var rowLeaves [][]*core.Expr
	e.Rows(func(_ string, _ db.Tuple, ann *core.Expr) {
		var leaves []*core.Expr
		seen := map[*core.Expr]bool{}
		var walk func(x *core.Expr)
		walk = func(x *core.Expr) {
			if seen[x] {
				return
			}
			seen[x] = true
			if x.Op() == core.OpVar {
				leaves = append(leaves, x)
			}
			for _, k := range x.Children() {
				walk(k)
			}
		}
		walk(ann)
		rowLeaves = append(rowLeaves, leaves)
	})
	hist := map[int]int{}
	for _, leaves := range rowLeaves {
		hist[len(leaves)]++
	}
	var out []whatIfReach
	for _, v := range []struct {
		name string
		dead core.Annot
	}{
		{"deletion", benchutil.KeyAnnot("R", victim)},
		{"abort", core.QueryAnnot(txns[0].Label)},
	} {
		m := whatIfReach{name: v.name, stored: e.NumRows(), leavesPerRow: hist}
		engine.Specialize(e, upstruct.Bool, upstruct.MapEnv(map[core.Annot]bool{v.dead: false}, true),
			func(string, db.Tuple, bool) { m.valued++ })
		for _, leaves := range rowLeaves {
			if slices.ContainsFunc(leaves, func(x *core.Expr) bool { return x.IsVar(v.dead) }) {
				m.reach++
			}
		}
		out = append(out, m)
	}
	return out
}

func (m whatIfReach) String() string {
	var h []string
	for n, left := 0, len(m.leavesPerRow); left > 0; n++ {
		if c, ok := m.leavesPerRow[n]; ok {
			h = append(h, fmt.Sprintf("%d:%d", n, c))
			left--
		}
	}
	return fmt.Sprintf("%s: %d rows stored, %d valued, %d mention a false leaf; leaves per row %s",
		m.name, m.stored, m.valued, m.reach, strings.Join(h, " "))
}

// TestWhatIfReach measures before it changes anything (ROADMAP item 17):
// a single-victim deletion and an abort what-if value every stored row,
// while a handful mention a leaf they set false. It logs the three counts
// and bounds the rows valued by the rows stored; BenchmarkWhatIfReach
// reads the same counts at Fig 8's scale-0.25 point.
func TestWhatIfReach(t *testing.T) {
	for _, m := range measureWhatIfReach(t, 0.02) {
		t.Log(m)
		if m.valued > m.stored || m.reach > m.valued {
			t.Errorf("%s: %d rows valued and %d reached of %d stored", m.name, m.valued, m.reach, m.stored)
		}
	}
}

// BenchmarkWhatIfReach reports TestWhatIfReach's counts at the Fig 8
// point of scale 0.25 (go test -run '^$' -bench WhatIfReach -benchtime
// 1x ./internal/engine/): rows_valued and rows_reached per valuation.
func BenchmarkWhatIfReach(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, m := range measureWhatIfReach(b, 0.25) {
			b.Log(m)
			b.ReportMetric(float64(m.valued), m.name+"_rows_valued")
			b.ReportMetric(float64(m.reach), m.name+"_rows_reached")
		}
	}
}
