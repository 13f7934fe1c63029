// Package benchutil contains the measurement harness behind the paper's
// experimental evaluation (Section 6): timed runs of the plain engine,
// the two provenance engines ("No axioms" and "Normal form"), the
// MV-semiring baseline, and the provenance-usage measurements (deletion
// propagation by valuation versus re-execution). cmd/experiments and the
// repository's bench_test.go are thin layers over this package.
package benchutil

import (
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/mvsemiring"
	"hyperprov/internal/tpcc"
)

// KeyAnnot names a tuple's initial annotation after the tuple itself,
// so experiments can address any initial tuple for deletion propagation.
func KeyAnnot(rel string, t db.Tuple) core.Annot {
	return core.TupleAnnot("t:" + rel + ":" + t.Key())
}

// Overhead is one measurement of provenance tracking cost (Figures 7a,
// 7b, 8a, 8b, 9a, 9b).
type Overhead struct {
	Updates int
	// InitialTuples is the size of the input database; every initial
	// tuple carries a one-node annotation, so provenance sizes have this
	// as a floor. The paper's log-scale "memory overhead" axes plot the
	// overhead above it.
	InitialTuples int
	PlainTime     time.Duration
	PlainTuples   int

	NaiveTime time.Duration
	NaiveProv int64
	NaiveRows int

	NFTime time.Duration
	NFProv int64
	NFRows int
}

// OverheadNaive is the naive provenance size above the one-node-per-
// initial-tuple floor — the "memory overhead" of the paper's figures.
func (o Overhead) OverheadNaive() int64 { return o.NaiveProv - int64(o.InitialTuples) }

// OverheadNF is the normal-form provenance size above the floor.
func (o Overhead) OverheadNF() int64 { return o.NFProv - int64(o.InitialTuples) }

// ApplyEach applies the transactions one ApplyTransaction at a time:
// the paper's access path, every selection walking its relation, where
// ApplyBatch would share one column pass among a batch's selections.
func ApplyEach(e engine.DB, txns []db.Transaction) error {
	for i := range txns {
		if err := e.ApplyTransaction(&txns[i]); err != nil {
			return err
		}
	}
	return nil
}

// RunOverhead measures plain, naive and normal-form executions of the
// transactions over (copies of) the initial database, returning the
// engines for further use measurements. The engines apply per
// transaction (ApplyEach), as the paper's implementation does.
func RunOverhead(initial *db.Database, txns []db.Transaction) (Overhead, *engine.Engine, *engine.Engine, error) {
	o := Overhead{Updates: db.CountQueries(txns), InitialTuples: initial.NumTuples()}

	// Each configuration starts from a clean heap so that one engine's
	// allocation pressure does not bleed into the next measurement.
	runtime.GC()
	plain := initial.Clone()
	start := time.Now()
	if err := plain.ApplyAll(txns); err != nil {
		return o, nil, nil, err
	}
	o.PlainTime = time.Since(start)
	o.PlainTuples = plain.NumTuples()

	runtime.GC()
	naive := engine.New(engine.ModeNaive, initial, engine.WithInitialAnnotations(KeyAnnot))
	start = time.Now()
	if err := ApplyEach(naive, txns); err != nil {
		return o, nil, nil, err
	}
	o.NaiveTime = time.Since(start)
	o.NaiveProv = naive.ProvSize()
	o.NaiveRows = naive.NumRows()

	runtime.GC()
	nf := engine.New(engine.ModeNormalForm, initial, engine.WithInitialAnnotations(KeyAnnot))
	start = time.Now()
	if err := ApplyEach(nf, txns); err != nil {
		return o, nil, nil, err
	}
	o.NFTime = time.Since(start)
	o.NFProv = nf.ProvSize()
	o.NFRows = nf.NumRows()
	return o, naive, nf, nil
}

// Usage is one measurement of provenance use for deletion propagation
// (Figures 7c, 8c): the "No provenance" baseline re-runs the whole
// sequence on the reduced database, the provenance variants assign a
// truth value and evaluate.
type Usage struct {
	RerunTime time.Duration
	NaiveUse  time.Duration
	NFUse     time.Duration
}

// RunUsage measures deletion propagation of the given victim tuple:
// re-execution on initial∖{victim} versus valuation of the naive and
// normal-form provenance (engines as returned by RunOverhead).
func RunUsage(initial *db.Database, txns []db.Transaction, naive, nf *engine.Engine, victimRel string, victim db.Tuple) (Usage, error) {
	var u Usage
	smaller := initial.Clone()
	if err := smaller.Apply(db.Delete(victimRel, db.ConstPattern(victim))); err != nil {
		return u, err
	}
	start := time.Now()
	if err := smaller.ApplyAll(txns); err != nil {
		return u, err
	}
	u.RerunTime = time.Since(start)
	want := smaller

	ann := KeyAnnot(victimRel, victim)
	start = time.Now()
	gotNaive := engine.DeletionPropagation(naive, ann)
	u.NaiveUse = time.Since(start)

	start = time.Now()
	gotNF := engine.DeletionPropagation(nf, ann)
	u.NFUse = time.Since(start)

	if !gotNaive.Equal(want) {
		return u, fmt.Errorf("benchutil: naive deletion propagation diverged from re-execution:\n%s", gotNaive.Diff(want))
	}
	if !gotNF.Equal(want) {
		return u, fmt.Errorf("benchutil: normal-form deletion propagation diverged from re-execution:\n%s", gotNF.Diff(want))
	}
	return u, nil
}

// MV is one measurement of the MV-semiring comparison (Figure 10).
type MV struct {
	TreeTime time.Duration
	// TreeProv counts expression nodes; TreeTokens counts rendered
	// tokens (a version annotation carries four fields), which is the
	// length measure comparable to UP[X] sizes.
	TreeProv   int64
	TreeTokens int64
	TreeRows   int
	StringTime time.Duration
	StringProv int64
}

// RunMV measures both MV-semiring representations on the workload.
func RunMV(initial *db.Database, txns []db.Transaction) (MV, error) {
	var m MV
	runtime.GC()
	tree := mvsemiring.New(mvsemiring.ReprTree, initial)
	start := time.Now()
	if err := tree.ApplyAll(txns); err != nil {
		return m, err
	}
	m.TreeTime = time.Since(start)
	m.TreeProv = tree.ProvSize()
	m.TreeTokens = tree.TokenSize()
	m.TreeRows = tree.NumRows()

	runtime.GC()
	str := mvsemiring.New(mvsemiring.ReprString, initial)
	start = time.Now()
	if err := str.ApplyAll(txns); err != nil {
		return m, err
	}
	m.StringTime = time.Since(start)
	m.StringProv = str.ProvSize()
	return m, nil
}

// Table is a simple aligned-column table for experiment output.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Add appends a row, stringifying the cells with %v ("%.3f" for floats
// and millisecond rendering for durations).
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case time.Duration:
			row[i] = fmt.Sprintf("%.1fms", float64(v.Microseconds())/1000)
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint writes the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "## %s\n\n", t.Title)
	}
	var header strings.Builder
	for i, c := range t.Columns {
		fmt.Fprintf(&header, "%-*s  ", widths[i], c)
	}
	fmt.Fprintln(w, strings.TrimRight(header.String(), " "))
	fmt.Fprintln(w, strings.Repeat("-", len(strings.TrimRight(header.String(), " "))))
	for _, r := range t.Rows {
		var line strings.Builder
		for i, c := range r {
			fmt.Fprintf(&line, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(line.String(), " "))
	}
	fmt.Fprintln(w)
}

// CSV writes the table as CSV (header + rows), for plotting the series
// with external tools.
func (t *Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Ratio renders a/b as "×N.N" (the paper reports speedups this way), or
// "-" when b is zero.
func Ratio(a, b time.Duration) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("x%.1f", float64(a)/float64(b))
}

// PickVictim returns a pool tuple present in the initial database to use
// for deletion propagation; it prefers a tuple the transactions touch so
// that the propagation is non-trivial.
func PickVictim(initial *db.Database, txns []db.Transaction, rel string) (db.Tuple, bool) {
	in := initial.Instance(rel)
	if in == nil || in.Len() == 0 {
		return nil, false
	}
	for i := range txns {
		for _, u := range txns[i].Updates {
			if u.Rel != rel || u.Kind == db.OpInsert {
				continue
			}
			var found db.Tuple
			in.Each(func(t db.Tuple) {
				if found == nil && u.Sel.Matches(t) {
					found = t
				}
			})
			if found != nil {
				return found, true
			}
		}
	}
	return in.Tuples()[0], true
}

// TPCCOpList returns the wire benchmark's oltp_point op list
// (bench/e2e's tpccPlan) for in-process measurement of the same work:
// the TPC-C instance at scale 0.02 under the seed and its first n
// transactions that update anything — a Delivery with no pending order
// commits nothing, and the benchmark does not send it.
func TPCCOpList(seed int64, n int) (*db.Database, []db.Transaction, error) {
	cfg := tpcc.Scaled(0.02)
	cfg.Seed = seed
	g := tpcc.NewGenerator(cfg)
	initial, err := g.InitialDatabase()
	if err != nil {
		return nil, nil, err
	}
	txns := make([]db.Transaction, 0, n)
	for len(txns) < n {
		if t := g.NextTransaction(); len(t.Updates) > 0 {
			txns = append(txns, t)
		}
	}
	return initial, txns, nil
}
