package main

import (
	"os"
	"path/filepath"
	"testing"

	"hyperprov/internal/db"
	"hyperprov/internal/parser"
	"hyperprov/internal/workload"
)

// TestRunRereads runs the command at a tiny scale in both log syntaxes
// and reads back what it wrote: R.csv holds the generator's table, and
// the log parses into the generator's transactions and queries.
func TestRunRereads(t *testing.T) {
	cfg := workload.Config{
		Tuples: 500, Pool: 10, Group: 1, Updates: 30,
		QueriesPerTxn: 3, MergeRatio: 0.1, Seed: 7,
	}
	want, txns, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for syntax, logName := range map[string]string{"sql": "txns.sql", "datalog": "txns.dl"} {
		t.Run(syntax, func(t *testing.T) {
			dir := t.TempDir()
			if err := run(cfg, dir, syntax); err != nil {
				t.Fatal(err)
			}
			got := db.NewDatabase(want.Schema())
			f, err := os.Open(filepath.Join(dir, "R.csv"))
			if err != nil {
				t.Fatal(err)
			}
			_, err = db.ReadCSV(got, "R", f)
			f.Close()
			if err != nil {
				t.Fatal(err)
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
	if err := run(cfg, t.TempDir(), "yaml"); err == nil {
		t.Error("an unknown syntax must fail")
	}
}
