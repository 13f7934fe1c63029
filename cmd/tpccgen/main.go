// Command tpccgen generates a TPC-C instance and a hyperplane
// transaction log, replacing the py-tpcc setup of the paper's Section 6:
//
//	tpccgen -scale 0.05 -queries 2000 -outdir ./tpcc-data
//
// It writes one CSV per TPC-C relation plus txns.sql, a BEGIN/COMMIT
// transaction log in the SQL fragment accepted by cmd/hyperprov.
package main

import (
	"flag"
	"fmt"
	"os"

	"hyperprov/cmd/internal/datadir"
	"hyperprov/internal/db"
	"hyperprov/internal/tpcc"
)

func main() {
	scale := flag.Float64("scale", 0.05, "scale factor (1.0 ≈ the paper's 2.1M-tuple instance)")
	queries := flag.Int("queries", 2000, "minimum number of update queries in the log")
	outdir := flag.String("outdir", "tpcc-data", "output directory")
	seed := flag.Int64("seed", 1, "generator seed")
	syntax := flag.String("syntax", "sql", "log syntax to emit: sql or datalog")
	flag.Parse()

	if err := run(*scale, *queries, *outdir, *seed, *syntax); err != nil {
		fmt.Fprintln(os.Stderr, "tpccgen:", err)
		os.Exit(1)
	}
}

func run(scale float64, queries int, outdir string, seed int64, syntax string) error {
	cfg := tpcc.Scaled(scale)
	cfg.Seed = seed
	g := tpcc.NewGenerator(cfg)
	initial, err := g.InitialDatabase()
	if err != nil {
		return err
	}
	txns := g.TransactionsForQueries(queries)

	if err := datadir.Write(outdir, initial, txns, syntax); err != nil {
		return err
	}
	fmt.Printf("wrote %d tuples across %d relations and %d transactions (%d update queries) to %s\n",
		initial.NumTuples(), len(initial.Schema().Names()), len(txns), db.CountQueries(txns), outdir)
	return nil
}
