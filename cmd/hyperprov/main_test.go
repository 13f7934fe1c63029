package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hyperprov/internal/engine"
	"hyperprov/internal/provstore"
)

func snapshotBytes(t *testing.T, src provstore.Source) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := provstore.SaveSnapshot(&buf, src); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestartDoesNotReadCSV: serve -data R=r.csv -data-dir d bootstraps d
// from the CSV once; run again with the same command line after the CSV
// has been deleted it recovers the same state — a restart neither parses
// nor needs what the directory was seeded from — where a fresh directory
// still refuses to start without the file.
func TestRestartDoesNotReadCSV(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "products.csv")
	const products = "Product:string,Category:string,Price:int\n" +
		"Tennis Racket,Sport,70\nKids mnt bike,Sport,120\n\"Lego, bricks\",Kids,90\nKids mnt bike,Kids,120\n"
	if err := os.WriteFile(csvPath, []byte(products), 0o644); err != nil {
		t.Fatal(err)
	}
	data := dataFlags{"Products": csvPath}
	open := func(sub string) (*engine.Engine, func() error, error) {
		st, names, err := openStore(filepath.Join(dir, sub), "never", "nf", 0, data, nil)
		if err != nil {
			return nil, nil, err
		}
		if len(names) != 1 || names[0] != "Products" {
			t.Fatalf("relations %v", names)
		}
		return st.Engine(), st.Close, nil
	}
	e, closeStore, err := open("d")
	if err != nil {
		t.Fatal(err)
	}
	if b := e.Boot(); b.Source != "csv" || b.Rows != 4 || b.ReadMs <= 0 || b.TotalMs < b.ReadMs {
		t.Errorf("boot record of the bootstrap: %+v", *b)
	}
	want := snapshotBytes(t, e)
	mem, _, err := loadCSVEngine(data, "nf")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, mem), want) {
		t.Error("the in-memory engine and the bootstrapped store differ")
	}
	if err := closeStore(); err != nil {
		t.Fatal(err)
	}

	if err := os.Remove(csvPath); err != nil {
		t.Fatal(err)
	}
	e, closeStore, err = open("d")
	if err != nil {
		t.Fatalf("restart without the CSV: %v", err)
	}
	defer closeStore()
	if !bytes.Equal(snapshotBytes(t, e), want) {
		t.Error("the restarted store differs from the bootstrapped one")
	}
	if b := e.Boot(); b.Source != "checkpoint" || b.ReadMs != 0 {
		t.Errorf("boot record of the restart: %+v", *b)
	}
	if _, _, err := open("fresh"); err == nil {
		t.Error("a fresh directory started without its CSV")
	}
}
