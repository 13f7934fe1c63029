// Command synthgen generates the synthetic dataset and update sequence
// of the paper's Section 6.1:
//
//	synthgen -tuples 100000 -pool 20 -group 1 -updates 200 -outdir ./synth-data
//
// It writes R.csv and txns.sql (a BEGIN/COMMIT SQL log accepted by
// cmd/hyperprov).
package main

import (
	"flag"
	"fmt"
	"os"

	"hyperprov/cmd/internal/datadir"
	"hyperprov/internal/db"
	"hyperprov/internal/workload"
)

func main() {
	tuples := flag.Int("tuples", 100000, "initial table size (the paper uses 1000000)")
	pool := flag.Int("pool", 20, "total number of affected tuples (0.02% in the paper)")
	group := flag.Int("group", 1, "tuples affected per query")
	updates := flag.Int("updates", 200, "number of update queries")
	perTxn := flag.Int("queries-per-txn", 1, "queries per transaction annotation")
	merge := flag.Float64("merge", 0.1, "fraction of modifications collapsing a group")
	seed := flag.Int64("seed", 1, "generator seed")
	outdir := flag.String("outdir", "synth-data", "output directory")
	syntax := flag.String("syntax", "sql", "log syntax to emit: sql or datalog")
	flag.Parse()

	cfg := workload.Config{
		Tuples: *tuples, Pool: *pool, Group: *group, Updates: *updates,
		QueriesPerTxn: *perTxn, MergeRatio: *merge, Seed: *seed,
	}
	if err := run(cfg, *outdir, *syntax); err != nil {
		fmt.Fprintln(os.Stderr, "synthgen:", err)
		os.Exit(1)
	}
}

func run(cfg workload.Config, outdir string, syntax string) error {
	initial, txns, err := workload.Generate(cfg)
	if err != nil {
		return err
	}
	if err := datadir.Write(outdir, initial, txns, syntax); err != nil {
		return err
	}
	fmt.Printf("wrote %d tuples and %d transactions (%d update queries) to %s\n",
		initial.NumTuples(), len(txns), db.CountQueries(txns), outdir)
	return nil
}
