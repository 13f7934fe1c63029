package db

// CSV in WriteCSV's format: a header of "name:kind" columns, then one
// record per tuple. There is one reader: scanCSV's record loop parses
// records into slabs of values and is fed by one of two tokenizers, chosen
// from the bytes themselves (plainCSV) — in-place splitting on '\n' and
// ',' for a file with nothing to unquote, encoding/csv for any other.
// ReadCSV and LoadCSVRelation put the rows into a Database; CSVRows
// delivers them to an engine's loader in key order with no Database in
// between.

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"unsafe"
)

// WriteCSV writes the instance as CSV: a header of "name:kind" columns
// followed by one row per tuple in deterministic (key) order.
func WriteCSV(w io.Writer, in *Instance) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(in.rel.Attrs))
	for i, a := range in.rel.Attrs {
		header[i] = a.Name + ":" + a.Kind.String()
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, t := range in.Tuples() {
		rec := make([]string, len(t))
		for i, v := range t {
			rec[i] = v.String()
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSVSchema parses the header produced by WriteCSV into a relation
// schema with the given name.
func ReadCSVSchema(name string, header []string) (*RelationSchema, error) {
	attrs := make([]Attribute, len(header))
	for i, h := range header {
		colon := strings.LastIndexByte(h, ':')
		if colon < 0 {
			return nil, fmt.Errorf("db: CSV header column %q lacks a :kind suffix", h)
		}
		kind, err := ParseKind(h[colon+1:])
		if err != nil {
			return nil, err
		}
		attrs[i] = Attribute{Name: h[:colon], Kind: kind}
	}
	return NewRelationSchema(name, attrs...)
}

// plainCSV reports whether the in-place tokenizer reads data exactly as
// encoding/csv would: no quote to interpret, no "\r\n" to normalise —
// everything WriteCSV emits for values without a comma, quote or newline.
func plainCSV(data []byte) bool {
	return bytes.IndexByte(data, '"') < 0 && bytes.IndexByte(data, '\r') < 0
}

// csvRecords calls rec with every record of data, the header first; the
// fields are views valid for the call only. The in-place tokenizer skips
// blank lines and refuses a short or long record as encoding/csv does.
func csvRecords(data []byte, rec func(fields []string) error) error {
	if !plainCSV(data) {
		cr := csv.NewReader(bytes.NewReader(data))
		cr.ReuseRecord = true
		for {
			fields, err := cr.Read()
			if err == io.EOF {
				return nil
			}
			if err == nil {
				err = rec(fields)
			}
			if err != nil {
				return err
			}
		}
	}
	var fields []string
	for line := 1; len(data) > 0; line++ {
		l, rest, _ := bytes.Cut(data, []byte{'\n'})
		if data = rest; len(l) == 0 {
			continue
		}
		want := len(fields)
		fields = fields[:0]
		for more := true; more; {
			var f []byte
			f, l, more = bytes.Cut(l, []byte{','})
			fields = append(fields, unsafe.String(unsafe.SliceData(f), len(f)))
		}
		if want > 0 && len(fields) != want {
			return &csv.ParseError{StartLine: line, Line: line, Column: 1, Err: csv.ErrFieldCount}
		}
		if err := rec(fields); err != nil {
			return err
		}
	}
	return nil
}

// csvBatch is how many rows the reader parses into one slab and hands
// over at a time.
const csvBatch = 1024

// scanCSV is the reader's one record loop: the first record must be a
// header of rs's arity, every later one is parsed into a tuple of rs, and
// emit gets the tuples in file order, csvBatch at a time — those before a
// failing record too. The tuples are views of slabs nothing else refers
// to. It returns the number of rows emitted.
func scanCSV(rs *RelationSchema, data []byte, emit func(rows []Tuple) error) (int, error) {
	var (
		vals   []Value
		rows   []Tuple
		n      int
		header bool
	)
	arity := len(rs.Attrs)
	err := csvRecords(data, func(fields []string) (err error) {
		if !header {
			header = true
			if _, err := ReadCSVSchema(rs.Name, fields); err != nil {
				return err
			}
			if len(fields) != arity {
				return fmt.Errorf("db: CSV for %s has %d columns, schema needs %d", rs.Name, len(fields), arity)
			}
			return nil
		}
		if len(vals) == 0 {
			vals, rows = make([]Value, csvBatch*arity), make([]Tuple, 0, csvBatch)
		}
		t := Tuple(vals[:arity:arity])
		for i, field := range fields {
			if t[i], err = ParseValue(rs.Attrs[i].Kind, field); err != nil {
				return fmt.Errorf("db: row %d of %s: %w", n+len(rows)+1, rs.Name, err)
			}
		}
		if vals, rows = vals[arity:], append(rows, t); len(vals) == 0 {
			n += len(rows)
			err = emit(rows)
			rows = nil
		}
		return err
	})
	if !header {
		if err == nil {
			err = io.EOF
		}
		return 0, fmt.Errorf("db: reading CSV header: %w", err)
	}
	if len(rows) > 0 {
		n += len(rows)
		if ferr := emit(rows); err == nil {
			err = ferr
		}
	}
	return n, err
}

// ReadCSV loads tuples in WriteCSV's format into the relation of the
// database, which must have as many attributes as the header; it returns
// the number of rows read. LoadCSVRelation builds the database from the
// header for callers without a schema.
func ReadCSV(d *Database, rel string, r io.Reader) (int, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, fmt.Errorf("db: reading CSV header: %w", err)
	}
	rs := d.Schema().Relation(rel)
	if rs == nil {
		return 0, fmt.Errorf("db: unknown relation %s", rel)
	}
	return scanCSV(rs, data, func(rows []Tuple) error {
		for _, t := range rows {
			if err := d.InsertTuple(rel, t); err != nil {
				return err
			}
		}
		return nil
	})
}

// LoadCSVRelation reads a CSV stream into a fresh single-relation
// database, deriving the schema from the header.
func LoadCSVRelation(rel string, r io.Reader) (*Database, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("db: reading CSV header: %w", err)
	}
	rs, err := CSVSchema(rel, data)
	if err != nil {
		return nil, err
	}
	schema, err := NewSchema(rs)
	if err != nil {
		return nil, err
	}
	d := NewDatabase(schema)
	if _, err := ReadCSV(d, rel, bytes.NewReader(data)); err != nil {
		return nil, err
	}
	return d, nil
}

// errStop ends a scan early: behind the header (CSVSchema), at a row out
// of key order (CSVRows).
var errStop = errors.New("db: CSV scan stopped")

// CSVSchema derives the relation schema from the header of a CSV file.
func CSVSchema(rel string, data []byte) (rs *RelationSchema, err error) {
	scanErr := csvRecords(data, func(header []string) error {
		rs, err = ReadCSVSchema(rel, header)
		return errStop
	})
	if scanErr == nil {
		scanErr = io.EOF
	}
	if scanErr != errStop {
		return nil, fmt.Errorf("db: reading CSV header: %w", scanErr)
	}
	return rs, err
}

// CSVRows delivers one CSV file as a RowSource must: rs's rows in key
// order, a later duplicate replacing an earlier one, as a Database loaded
// from the file would list them — without building one. A file the in-place
// tokenizer splits streams batch by batch, its row count taken from its
// line count, each row's key rendered once and compared with the one
// before it: strictly increasing (what WriteCSV writes) needs neither
// sort nor map. Should a row break the order or blank lines the count —
// or the file need encoding/csv — it is parsed whole, an index over one
// arena of rendered keys is sorted, and the relation is delivered (again:
// Restart) as one batch.
func CSVRows(rs *RelationSchema, data []byte, emit func(RowBatch) error) error {
	emitted := false
	if plainCSV(data) {
		// Lines behind the header, if none of them is blank.
		total := bytes.Count(bytes.TrimRight(data, "\n"), []byte{'\n'})
		var prev, cur []byte
		n, err := scanCSV(rs, data, func(rows []Tuple) error {
			for _, t := range rows {
				if cur = t.AppendKey(cur[:0]); bytes.Compare(prev, cur) >= 0 {
					return errStop
				}
				prev, cur = cur, prev
			}
			b := RowBatch{Rel: rs.Name, Rows: rows}
			if !emitted {
				b.Total, emitted = total, true
			}
			return emit(b)
		})
		if err == nil && n == total || err != nil && err != errStop {
			return err
		}
	}
	var all []Tuple
	if _, err := scanCSV(rs, data, func(rows []Tuple) error {
		all = append(all, rows...)
		return nil
	}); err != nil {
		return err
	}
	all = sortByKey(all)
	return emit(RowBatch{Rel: rs.Name, Total: len(all), Restart: emitted, Rows: all})
}

// sortByKey orders tuples by Key, keeping of equal keys the last: an
// index sorted over one arena of rendered keys.
func sortByKey(rows []Tuple) []Tuple {
	arena := make([]byte, 0, 32*len(rows))
	ends := make([]int, 1, len(rows)+1)
	idx := make([]int, len(rows))
	for i, t := range rows {
		arena = t.AppendKey(arena)
		ends, idx[i] = append(ends, len(arena)), i
	}
	key := func(i int) []byte { return arena[ends[i]:ends[i+1]] }
	slices.SortStableFunc(idx, func(a, b int) int { return bytes.Compare(key(a), key(b)) })
	out := make([]Tuple, 0, len(rows))
	for j, i := range idx {
		if j+1 == len(idx) || !bytes.Equal(key(i), key(idx[j+1])) {
			out = append(out, rows[i])
		}
	}
	return out
}
