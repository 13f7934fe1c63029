package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
)

func loadTestSchema() *db.Schema {
	return db.MustSchema(
		db.MustRelationSchema("A", db.Attribute{Name: "id", Kind: db.KindInt}, db.Attribute{Name: "s", Kind: db.KindString}),
		db.MustRelationSchema("B", db.Attribute{Name: "id", Kind: db.KindInt}))
}

// keyOrdered returns n tuples of A in strictly increasing Key order.
func keyOrdered(n int) []db.Tuple {
	d := db.NewDatabase(loadTestSchema())
	for i := 0; i < n; i++ {
		if err := d.InsertTuple("A", db.Tuple{db.I(int64(i)), db.S("v")}); err != nil {
			panic(err)
		}
	}
	return d.Instance("A").Tuples()
}

// batched is a RowSource delivering A's rows in batches of the given
// size, the count announced on the first.
func batched(rows []db.Tuple, size int) db.RowSource {
	return func(emit func(db.RowBatch) error) error {
		for at := 0; at == 0 || at < len(rows); at += size {
			b := db.RowBatch{Rel: "A", Rows: rows[at:min(at+size, len(rows))]}
			if at == 0 {
				b.Total = len(rows)
			}
			if err := emit(b); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestLoadReservesWhatDoublingReaches: after Load of n announced rows the
// row map's slot count is that of the same rows stored one load at a
// time — reserving moves no later growth step.
// (The intern table's half of the claim needs a table of its own:
// core.TestVarsReserveWhatDoublingReaches.)
func TestLoadReservesWhatDoublingReaches(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 196608, 200000} {
		rows := keyOrdered(n)
		e, err := Load(ModeNormalForm, loadTestSchema(), batched(rows, 1024))
		if err != nil {
			t.Fatal(err)
		}
		one := NewEmpty(ModeNormalForm, loadTestSchema())
		for _, tu := range rows {
			one.load("A", core.Zero(), tu)
		}
		got, want := e.tables["A"], one.tables["A"]
		slots := func(tb *table) int {
			if tab := tb.rows.tab.Load(); tab != nil {
				return len(tab.slots)
			}
			return 0
		}
		if e.NumRows() != n || slots(got) != slots(want) {
			t.Errorf("n=%d: %d rows in %d slots; one at a time: %d slots", n, e.NumRows(), slots(got), slots(want))
		}
		if b := e.Boot(); b.Rows != n || (n > 0) != (b.Source == "database") || (n == 0) != (b.Source == "empty") {
			t.Errorf("n=%d: boot = %+v", n, *b)
		}
	}
}

// TestLoadRestart: a source that takes a relation back (its rows turned
// out not to be in key order) and delivers it again leaves the engine New
// builds from the rows — same names, same order, same versions; later
// relations carry on from the restarted one's last name.
func TestLoadRestart(t *testing.T) {
	rows := keyOrdered(3000)
	d := db.NewDatabase(loadTestSchema())
	for _, tu := range rows {
		_ = d.InsertTuple("A", tu)
	}
	_ = d.InsertTuple("B", db.Tuple{db.I(7)})
	src := func(emit func(db.RowBatch) error) error {
		// 1 100 rows the wrong way round, announced as 5 000; then all.
		if err := emit(db.RowBatch{Rel: "A", Total: 5000, Rows: rows[1900:]}); err != nil {
			return err
		}
		if err := emit(db.RowBatch{Rel: "A", Total: len(rows), Restart: true, Rows: rows[:10]}); err != nil {
			return err
		}
		if err := emit(db.RowBatch{Rel: "A", Rows: rows[10:]}); err != nil {
			return err
		}
		return emit(db.RowBatch{Rel: "B", Total: 1, Rows: []db.Tuple{{db.I(7)}}})
	}
	want := New(ModeNormalForm, d)
	got, err := Load(ModeNormalForm, d.Schema(), src)
	if err != nil {
		t.Fatal(err)
	}
	if got.MVCCStats().Versions != want.MVCCStats().Versions {
		t.Errorf("%d versions, want %d", got.MVCCStats().Versions, want.MVCCStats().Versions)
	}
	var gotRows, wantRows []string
	got.Rows(func(rel string, tu db.Tuple, ann *core.Expr) { gotRows = append(gotRows, rel+tu.Key()+ann.String()) })
	want.Rows(func(rel string, tu db.Tuple, ann *core.Expr) { wantRows = append(wantRows, rel+tu.Key()+ann.String()) })
	if strings.Join(gotRows, "\n") != strings.Join(wantRows, "\n") {
		t.Errorf("rows differ from New's (%d vs %d)", len(gotRows), len(wantRows))
	}
}

// TestLoadRefusesBadSources: rows that do not fit, relations unknown or
// out of schema order, more rows than announced and a source's own error
// fail the load, with no goroutine left behind.
func TestLoadRefusesBadSources(t *testing.T) {
	boom := errors.New("boom")
	one := func(b ...db.RowBatch) db.RowSource {
		return func(emit func(db.RowBatch) error) error {
			for _, b := range b {
				if err := emit(b); err != nil {
					return err
				}
			}
			return nil
		}
	}
	a, bRow := keyOrdered(2), []db.Tuple{{db.I(1)}}
	for name, c := range map[string]struct {
		src  db.RowSource
		want error
	}{
		"bad tuple":        {one(db.RowBatch{Rel: "A", Total: 1, Rows: bRow}), ErrBadTuple},
		"unknown relation": {one(db.RowBatch{Rel: "C", Total: 1, Rows: bRow}), ErrUnknownRelation},
		"out of order":     {one(db.RowBatch{Rel: "B", Total: 1, Rows: bRow}, db.RowBatch{Rel: "A", Total: 2, Rows: a}), ErrUnknownRelation},
		"too many rows":    {one(db.RowBatch{Rel: "A", Total: 1, Rows: a}), nil},
		"source fails": {func(emit func(db.RowBatch) error) error {
			if err := emit(db.RowBatch{Rel: "A", Total: 2, Rows: a}); err != nil {
				return err
			}
			return fmt.Errorf("reading: %w", boom)
		}, boom},
	} {
		e, err := Load(ModeNormalForm, loadTestSchema(), c.src)
		if e != nil || err == nil || c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: engine %v, err = %v", name, e != nil, err)
		}
	}
}
