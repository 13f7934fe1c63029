// Package datadir writes a generated instance the way cmd/hyperprov reads
// it: one CSV per relation and a transaction log.
package datadir

import (
	"fmt"
	"os"
	"path/filepath"

	"hyperprov/internal/db"
	"hyperprov/internal/parser"
)

// Write makes dir and writes into it <relation>.csv for every relation of
// initial and the log of txns: txns.sql in the "sql" syntax, txns.dl in
// the "datalog" one. An unknown syntax fails before anything is written.
func Write(dir string, initial *db.Database, txns []db.Transaction, syntax string) error {
	logName, format := "txns.sql", parser.FormatSQLLog
	switch syntax {
	case "sql":
	case "datalog":
		logName, format = "txns.dl", parser.FormatDatalogLog
	default:
		return fmt.Errorf("unknown syntax %q", syntax)
	}
	log, err := format(initial.Schema(), txns)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, rel := range initial.Schema().Names() {
		if err := writeCSV(filepath.Join(dir, rel+".csv"), initial.Instance(rel)); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, logName), []byte(log), 0o644)
}

func writeCSV(path string, in *db.Instance) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := db.WriteCSV(f, in); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
