package db_test

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"hyperprov/internal/db"
	"hyperprov/internal/tpcc"
	"hyperprov/internal/workload"
)

// oldReadCSV is the reader as it was before there was one record loop:
// encoding/csv for every file, a tuple and an InsertTuple per record. It
// is what the reader's two tokenizers are held to.
func oldReadCSV(d *db.Database, rel string, r io.Reader) (int, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return 0, fmt.Errorf("db: reading CSV header: %w", err)
	}
	rs, err := db.ReadCSVSchema(rel, header)
	if err != nil {
		return 0, err
	}
	want := d.Schema().Relation(rel)
	if len(want.Attrs) != len(rs.Attrs) {
		return 0, fmt.Errorf("db: CSV for %s has %d columns, schema needs %d", rel, len(rs.Attrs), len(want.Attrs))
	}
	n := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		t := make(db.Tuple, len(rec))
		for i, field := range rec {
			v, err := db.ParseValue(want.Attrs[i].Kind, field)
			if err != nil {
				return n, fmt.Errorf("db: row %d of %s: %w", n+1, rel, err)
			}
			t[i] = v
		}
		if err := d.InsertTuple(rel, t); err != nil {
			return n, err
		}
		n++
	}
}

// insertionOrder lists a relation's tuples as they were first inserted.
func insertionOrder(d *db.Database, rel string) (out []db.Tuple) {
	d.Instance(rel).Each(func(t db.Tuple) { out = append(out, t) })
	return out
}

func sameTuples(a, b []db.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Equal compares payload words: NaNs and -0 by their bits.
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// checkCSVAgainstOld holds ReadCSV and CSVRows to the old reader on one
// file: the same count and the same tuples in the same order, or the same
// error; and, when the file reads, CSVRows delivering what a Database
// loaded from it lists in key order. It reports which tokenizer read it.
func checkCSVAgainstOld(t testing.TB, rs *db.RelationSchema, data []byte) (plain bool) {
	t.Helper()
	schema := db.MustSchema(rs)
	old, got := db.NewDatabase(schema), db.NewDatabase(schema)
	oldN, oldErr := oldReadCSV(old, rs.Name, bytes.NewReader(data))
	gotN, gotErr := db.ReadCSV(got, rs.Name, bytes.NewReader(data))
	if oldN != gotN || fmt.Sprint(oldErr) != fmt.Sprint(gotErr) {
		t.Fatalf("ReadCSV = %d, %v; the old reader = %d, %v\n%q", gotN, gotErr, oldN, oldErr, clip(data))
	}
	if !sameTuples(insertionOrder(old, rs.Name), insertionOrder(got, rs.Name)) {
		t.Fatalf("ReadCSV and the old reader insert different tuples\n%q", clip(data))
	}
	var rows []db.Tuple
	announced, batches := -1, 0
	err := db.CSVRows(rs, data, func(b db.RowBatch) error {
		if b.Rel != rs.Name {
			t.Fatalf("batch of %q", b.Rel)
		}
		if b.Restart {
			rows, announced = nil, -1
		} else if batches > 0 && len(rows) == 0 {
			t.Fatalf("a second first batch without Restart")
		}
		if announced < 0 {
			announced = b.Total
		}
		rows = append(rows, b.Rows...)
		batches++
		return nil
	})
	if fmt.Sprint(err) != fmt.Sprint(oldErr) {
		t.Fatalf("CSVRows: %v; the old reader: %v\n%q", err, oldErr, clip(data))
	}
	if err == nil {
		if want := old.Instance(rs.Name).Tuples(); !sameTuples(rows, want) {
			t.Fatalf("CSVRows delivered %d rows, the old reader's database lists %d in key order\n%q", len(rows), len(want), clip(data))
		}
		if len(rows) > 0 && announced != len(rows) {
			t.Fatalf("CSVRows announced %d rows and delivered %d", announced, len(rows))
		}
	}
	return db.PlainCSV(data)
}

func clip(data []byte) []byte {
	if len(data) > 300 {
		return data[:300]
	}
	return data
}

// shuffledLines keeps the header and permutes the records.
func shuffledLines(data []byte, r *rand.Rand) []byte {
	lines := strings.SplitAfter(string(data), "\n")
	body := lines[1:]
	if body[len(body)-1] == "" {
		body = body[:len(body)-1]
	}
	r.Shuffle(len(body), func(i, j int) { body[i], body[j] = body[j], body[i] })
	return []byte(lines[0] + strings.Join(body, ""))
}

// TestCSVReaderMatchesOldReader: what WriteCSV writes — every relation of
// the TPC-C and the synthetic initial databases — as written, shuffled,
// with rows repeated, with and without the last newline, with blank
// lines, goes through the in-place tokenizer and reads as through
// encoding/csv.
func TestCSVReaderMatchesOldReader(t *testing.T) {
	cfg := tpcc.Scaled(0.02)
	cfg.Seed = 7
	tp, err := tpcc.NewGenerator(cfg).InitialDatabase()
	if err != nil {
		t.Fatal(err)
	}
	syn, _, err := workload.Generate(workload.Config{Tuples: 3000, Pool: 100, Updates: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for _, d := range []*db.Database{tp, syn} {
		for _, rel := range d.Schema().Names() {
			var buf bytes.Buffer
			if err := db.WriteCSV(&buf, d.Instance(rel)); err != nil {
				t.Fatal(err)
			}
			file := buf.Bytes()
			shuffled := shuffledLines(file, r)
			variants := map[string][]byte{
				"as written":          file,
				"shuffled":            shuffled,
				"rows repeated":       append(bytes.Clone(shuffled), shuffled[bytes.IndexByte(shuffled, '\n')+1:]...),
				"no trailing newline": bytes.TrimSuffix(file, []byte("\n")),
				"trailing blank line": append(bytes.Clone(file), '\n'),
				"blank lines inside":  bytes.Replace(file, []byte("\n"), []byte("\n\n"), 3),
			}
			for name, data := range variants {
				if !checkCSVAgainstOld(t, d.Schema().Relation(rel), data) {
					t.Errorf("%s, %s: not read in place", rel, name)
				}
			}
		}
	}
}

// TestCSVReaderEdgeFiles: the files the two tokenizers could disagree on.
func TestCSVReaderEdgeFiles(t *testing.T) {
	rs := db.MustRelationSchema("R",
		db.Attribute{Name: "a", Kind: db.KindInt},
		db.Attribute{Name: "s", Kind: db.KindString},
		db.Attribute{Name: "f", Kind: db.KindFloat})
	const hdr = "a:int,s:string,f:float\n"
	for name, c := range map[string]struct {
		data   string
		quoted bool // must take the encoding/csv branch
		fails  bool
	}{
		"empty":              {data: "", fails: true},
		"header only":        {data: hdr},
		"header, no newline": {data: strings.TrimSuffix(hdr, "\n")},
		"only blank lines":   {data: "\n\n", fails: true},
		"short record":       {data: hdr + "1,x,1\n2,y\n3,z,3\n", fails: true},
		"long record":        {data: hdr + "1,x,1\n\n2,y,2,2\n", fails: true},
		"short header":       {data: "a:int,s:string\n1,x\n", fails: true},
		"header kind":        {data: "a:int,s:text,f:float\n", fails: true},
		"spaces in an int":   {data: hdr + " 7,x,1\n7 ,y,1\n"},
		"bad int":            {data: hdr + "1,x,1\n1.5,y,2\n", fails: true},
		"float forms":        {data: hdr + "1,a,1e3\n2,b,NaN\n3,c,-0\n4,d,0\n5,e,+Inf\n6,f,0x1p-2\n"},
		"bad float":          {data: hdr + "1,a,1e\n", fails: true},
		"empty fields":       {data: hdr + "1,,1\n", fails: false},
		"empty int":          {data: hdr + ",x,1\n", fails: true},
		"same key twice":     {data: hdr + "2,b,NaN\n1,a,1\n2,b,nan\n"},
		"quoted comma":       {data: hdr + "1,\"x,y\",1\n", quoted: true},
		"quoted newline":     {data: hdr + "2,\"x\ny\",1\n1,\"q\"\"q\",2\n", quoted: true},
		"bare quote":         {data: hdr + "1,x\"y,1\n", quoted: true, fails: true},
		"CRLF":               {data: "a:int,s:string,f:float\r\n1,x,1\r\n\r\n2,y,2\r\n", quoted: true},
		"lone CR":            {data: hdr + "1,x\ry,1\n", quoted: true},
	} {
		t.Run(name, func(t *testing.T) {
			plain := checkCSVAgainstOld(t, rs, []byte(c.data))
			if plain == c.quoted {
				t.Errorf("read in place: %v", plain)
			}
			if _, err := db.ReadCSV(db.NewDatabase(db.MustSchema(rs)), "R", strings.NewReader(c.data)); (err != nil) != c.fails {
				t.Errorf("err = %v", err)
			}
		})
	}
}

// FuzzReadCSV: whatever the bytes, the reader — whichever tokenizer it
// picks — and the old reader agree on the tuples, their order and the
// error.
func FuzzReadCSV(f *testing.F) {
	const hdr = "a:int,s:string,f:float\n"
	for _, seed := range []string{
		hdr + "1,x,1.5\n2,y,-0\n", hdr + "2,y,2\n1,x,1\n2,y,2", hdr + "1,\"x,\ny\",1\r\n", hdr + "1,x\n", "\n" + hdr + "\n\n 7,,NaN\n",
		"a:int\n1\n", hdr + "1,x,1,\n", "a:int,s:string,f:float", "\"a:int\",s:string,f:float\n1,\"\",0x1p3\n",
	} {
		f.Add([]byte(seed))
	}
	rs := db.MustRelationSchema("R",
		db.Attribute{Name: "a", Kind: db.KindInt},
		db.Attribute{Name: "s", Kind: db.KindString},
		db.Attribute{Name: "f", Kind: db.KindFloat})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCSVAgainstOld(t, rs, data)
	})
}
