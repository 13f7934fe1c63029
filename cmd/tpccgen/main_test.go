package main

import (
	"os"
	"path/filepath"
	"testing"

	"hyperprov/internal/db"
	"hyperprov/internal/parser"
	"hyperprov/internal/tpcc"
)

// TestRunRereads runs the command at a tiny scale in both log syntaxes
// and reads back what it wrote: the CSVs hold the generator's instance,
// and the log parses into the generator's transactions and queries.
func TestRunRereads(t *testing.T) {
	const scale, queries, seed = 0.01, 40, 7
	cfg := tpcc.Scaled(scale)
	cfg.Seed = seed
	g := tpcc.NewGenerator(cfg)
	want, err := g.InitialDatabase()
	if err != nil {
		t.Fatal(err)
	}
	txns := g.TransactionsForQueries(queries)

	for syntax, logName := range map[string]string{"sql": "txns.sql", "datalog": "txns.dl"} {
		t.Run(syntax, func(t *testing.T) {
			dir := t.TempDir()
			if err := run(scale, queries, dir, seed, syntax); err != nil {
				t.Fatal(err)
			}
			got := db.NewDatabase(want.Schema())
			for _, rel := range want.Schema().Names() {
				f, err := os.Open(filepath.Join(dir, rel+".csv"))
				if err != nil {
					t.Fatal(err)
				}
				_, err = db.ReadCSV(got, rel, f)
				f.Close()
				if err != nil {
					t.Fatalf("%s.csv: %v", rel, err)
				}
			}
			if got.NumTuples() != want.NumTuples() || !got.Equal(want) {
				t.Errorf("re-read %d tuples, generated %d:\n%s", got.NumTuples(), want.NumTuples(), got.Diff(want))
			}

			src, err := os.ReadFile(filepath.Join(dir, logName))
			if err != nil {
				t.Fatal(err)
			}
			parse := parser.ParseSQLLog
			if syntax == "datalog" {
				parse = parser.ParseDatalogLog
			}
			parsed, err := parse(want.Schema(), string(src))
			if err != nil {
				t.Fatal(err)
			}
			if len(parsed) != len(txns) || db.CountQueries(parsed) != db.CountQueries(txns) {
				t.Errorf("re-read %d transactions (%d queries), generated %d (%d)",
					len(parsed), db.CountQueries(parsed), len(txns), db.CountQueries(txns))
			}
		})
	}
	if err := run(scale, queries, t.TempDir(), seed, "yaml"); err == nil {
		t.Error("an unknown syntax must fail")
	}
}
