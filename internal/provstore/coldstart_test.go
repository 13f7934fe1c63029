package provstore_test

import (
	"bytes"
	"encoding/csv"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/provstore"
	"hyperprov/internal/tpcc"
	"hyperprov/internal/workload"
)

// oldCSVDatabase loads the files as the reader did before the engine had
// a loader of its own: encoding/csv into a db.Database.
func oldCSVDatabase(t *testing.T, schema *db.Schema, files map[string][]byte) *db.Database {
	t.Helper()
	d := db.NewDatabase(schema)
	for rel, data := range files {
		recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs[1:] {
			tu := make(db.Tuple, len(rec))
			for i, field := range rec {
				if tu[i], err = db.ParseValue(schema.Relation(rel).Attrs[i].Kind, field); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.InsertTuple(rel, tu); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d
}

// TestCSVLoadMatchesNew: an engine loaded straight from CSV bytes saves
// the snapshot, byte for byte, of engine.New over the database the old
// reader builds from the same files — same annotation names, same row
// order — in both modes, the files as WriteCSV wrote them (streamed) and
// shuffled with rows repeated (sorted, restarted).
func TestCSVLoadMatchesNew(t *testing.T) {
	cfg := tpcc.Scaled(0.02)
	cfg.Seed = 11
	tp, err := tpcc.NewGenerator(cfg).InitialDatabase()
	if err != nil {
		t.Fatal(err)
	}
	syn, _, err := workload.Generate(workload.Config{Tuples: 5000, Pool: 100, Updates: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	for _, initial := range []*db.Database{tp, syn} {
		schema := initial.Schema()
		sorted, shuffled := map[string][]byte{}, map[string][]byte{}
		for _, rel := range schema.Names() {
			var buf bytes.Buffer
			if err := db.WriteCSV(&buf, initial.Instance(rel)); err != nil {
				t.Fatal(err)
			}
			sorted[rel] = buf.Bytes()
			lines := strings.SplitAfter(buf.String(), "\n")
			body := lines[1 : len(lines)-1]
			body = append(body, body[:len(body)/4]...)
			r.Shuffle(len(body), func(i, j int) { body[i], body[j] = body[j], body[i] })
			shuffled[rel] = []byte(lines[0] + strings.Join(body, ""))
		}
		for name, files := range map[string]map[string][]byte{"sorted": sorted, "shuffled": shuffled} {
			old := oldCSVDatabase(t, schema, files)
			src := func(emit func(db.RowBatch) error) error {
				for _, rel := range schema.Names() {
					if err := db.CSVRows(schema.Relation(rel), files[rel], emit); err != nil {
						return err
					}
				}
				return nil
			}
			for _, mode := range []engine.Mode{engine.ModeNormalForm, engine.ModeNaive} {
				var want bytes.Buffer
				if err := provstore.SaveSnapshot(&want, engine.New(mode, old)); err != nil {
					t.Fatal(err)
				}
				e, err := engine.Load(mode, schema, src)
				if err != nil {
					t.Fatal(err)
				}
				var got bytes.Buffer
				if err := provstore.SaveSnapshot(&got, e); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("%s files, %v: snapshot of the CSV-loaded engine (%d bytes) differs from engine.New's (%d bytes)",
						name, mode, got.Len(), want.Len())
				}
			}
		}
	}
}

// settledGoroutines waits for the count to come back to at most base: a
// goroutine that has handed over its last result may not have exited yet.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

type failingReader struct {
	r     io.Reader
	left  int
	cause error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, f.cause
	}
	n, err := f.r.Read(p[:min(len(p), f.left)])
	f.left -= n
	return n, err
}

// TestLoadSnapshotLeavesNoGoroutine: the decoder runs beside the restore;
// when the reader fails mid-stream, at every cut, LoadSnapshot returns
// the reader's error and nothing keeps running — and so for every image
// the hostile-input tests feed it, whatever they make it return.
func TestLoadSnapshotLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	boom := errors.New("disk on fire")
	for _, img := range sweptSnapshots(t) {
		for cut := 0; cut < len(img.raw); cut += 1 + len(img.raw)/97 {
			_, err := provstore.LoadSnapshot(&failingReader{r: bytes.NewReader(img.raw), left: cut, cause: boom})
			if !errors.Is(err, boom) {
				t.Fatalf("%s, reader failing after %d bytes: err = %v", img.name, cut, err)
			}
			flipped := bytes.Clone(img.raw)
			flipped[cut] ^= 0x10
			_, _ = provstore.LoadSnapshot(bytes.NewReader(flipped))
			_, _ = provstore.LoadSnapshot(bytes.NewReader(img.raw[:cut]))
		}
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("%d goroutines after the loads, %d before", n, base)
	}
}
