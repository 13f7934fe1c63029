package parser_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"hyperprov/internal/db"
	"hyperprov/internal/parser"
	"hyperprov/internal/tpcc"
	"hyperprov/internal/workload"
)

func TestFormatSQLRoundTrip(t *testing.T) {
	s := schema()
	updates := []db.Update{
		db.Insert("Products", db.Tuple{db.S("O'Neil board"), db.S("Sport"), db.I(300)}),
		db.Delete("Products", db.Pattern{db.VarNotEq("p", db.S("Kids mnt bike")), db.Const(db.S("Sport")), db.AnyVar("c")}),
		db.Modify("Products",
			db.Pattern{db.Const(db.S("Kids mnt bike")), db.AnyVar("a"), db.AnyVar("b")},
			[]db.SetClause{db.Keep(), db.SetTo(db.S("Bicycles")), db.Keep()}),
		db.Delete("Products", db.AllPattern(3)),
	}
	for _, u := range updates {
		stmt, err := parser.FormatSQL(s, u)
		if err != nil {
			t.Fatalf("FormatSQL(%v): %v", u, err)
		}
		back, err := parser.ParseSQLStatement(s, stmt)
		if err != nil {
			t.Fatalf("reparse of %q: %v", stmt, err)
		}
		if back.Kind != u.Kind || back.Rel != u.Rel {
			t.Errorf("round trip changed update: %q", stmt)
		}
		// Behavioural equivalence: same effect on the example database.
		d1, d2 := initialDB(t), initialDB(t)
		if err := d1.Apply(u); err != nil {
			t.Fatal(err)
		}
		if err := d2.Apply(back); err != nil {
			t.Fatal(err)
		}
		if !d1.Equal(d2) {
			t.Errorf("round trip of %q changed semantics:\n%s", stmt, d1.Diff(d2))
		}
	}
}

func TestFormatSQLLogRoundTripTPCC(t *testing.T) {
	g := tpcc.NewGenerator(tpcc.DefaultConfig())
	initial, err := g.InitialDatabase()
	if err != nil {
		t.Fatal(err)
	}
	txns := g.Transactions(15)
	src, err := parser.FormatSQLLog(initial.Schema(), txns)
	if err != nil {
		t.Fatal(err)
	}
	back, err := parser.ParseSQLLog(initial.Schema(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(txns) {
		t.Fatalf("round trip: %d transactions, want %d", len(back), len(txns))
	}
	d1, d2 := initial.Clone(), initial.Clone()
	if err := d1.ApplyAll(txns); err != nil {
		t.Fatal(err)
	}
	if err := d2.ApplyAll(back); err != nil {
		t.Fatal(err)
	}
	if !d1.Equal(d2) {
		t.Errorf("TPC-C SQL log round trip changed semantics:\n%s", d1.Diff(d2))
	}
}

func TestFormatSQLLogRoundTripSynthetic(t *testing.T) {
	cfg := workload.Config{Tuples: 200, Pool: 10, Group: 2, Updates: 50, MergeRatio: 0.2, Seed: 4}
	initial, txns, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := parser.FormatSQLLog(initial.Schema(), txns)
	if err != nil {
		t.Fatal(err)
	}
	back, err := parser.ParseSQLLog(initial.Schema(), src)
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := initial.Clone(), initial.Clone()
	if err := d1.ApplyAll(txns); err != nil {
		t.Fatal(err)
	}
	if err := d2.ApplyAll(back); err != nil {
		t.Fatal(err)
	}
	if !d1.Equal(d2) {
		t.Errorf("synthetic SQL log round trip changed semantics:\n%s", d1.Diff(d2))
	}
}

func TestFormatSQLQuoting(t *testing.T) {
	s := schema()
	stmt, err := parser.FormatSQL(s, db.Insert("Products", db.Tuple{db.S("O'Neil"), db.S("Sport"), db.I(1)}))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stmt, "'O''Neil'") {
		t.Errorf("quote escaping missing: %q", stmt)
	}
}

func TestFormatSQLErrors(t *testing.T) {
	s := schema()
	if _, err := parser.FormatSQL(s, db.Insert("Nope", db.Tuple{db.S("x")})); err == nil {
		t.Error("unknown relation accepted")
	}
	noop := db.Modify("Products", db.AllPattern(3), make([]db.SetClause, 3))
	if _, err := parser.FormatSQL(s, noop); err == nil {
		t.Error("modification without SET clauses accepted")
	}
}

// TestFormatLogRoundTripFloats is the round-trip property for float
// constants: db.Value.String renders them with 'g', which switches to
// exponent form from 1e6 up and below 1e-4, and the lexer's number rule
// must take every such rendering back — in the SQL log and in the
// datalog notation, in inserted rows, selection constants,
// disequalities and SET clauses alike — to the bit-identical value.
func TestFormatLogRoundTripFloats(t *testing.T) {
	s, err := db.NewSchema(db.MustRelationSchema("M",
		db.Attribute{Name: "id", Kind: db.KindInt},
		db.Attribute{Name: "x", Kind: db.KindFloat}))
	if err != nil {
		t.Fatal(err)
	}
	floats := []float64{
		0, 1, -1, 3, 0.5, 999999, 1e6, 1.00004346e+06, 123456789, 1e20, 1e21, 1.5e21, 1e300,
		math.MaxFloat64, 1e-4, 9.99e-5, 1e-7, 2.5e-9, 5e-324, -1e6, -1e21, -1e-7, -1234567.25,
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		// Magnitudes across the whole exponent range, both signs,
		// integral and fractional mantissas.
		f := math.Ldexp(float64(rng.Intn(1<<20))/float64(int(1)<<uint(rng.Intn(12))), rng.Intn(200)-100)
		if rng.Intn(2) == 0 {
			f = -f
		}
		floats = append(floats, f)
	}
	var txns []db.Transaction
	for i, f := range floats {
		v := db.F(f)
		txns = append(txns, db.Transaction{Label: fmt.Sprintf("t%d", i), Updates: []db.Update{
			db.Insert("M", db.Tuple{db.I(int64(i)), v}),
			db.Modify("M", db.Pattern{db.AnyVar("a"), db.Const(v)}, []db.SetClause{db.Keep(), db.SetTo(db.F(-f))}),
			db.Delete("M", db.Pattern{db.Const(db.I(-1)), db.VarNotEq("b", v)}),
		}})
	}
	formats := map[string]struct {
		format func(*db.Schema, []db.Transaction) (string, error)
		parse  func(*db.Schema, string) ([]db.Transaction, error)
	}{
		"sql":     {parser.FormatSQLLog, parser.ParseSQLLog},
		"datalog": {parser.FormatDatalogLog, parser.ParseDatalogLog},
	}
	for name, f := range formats {
		src, err := f.format(s, txns)
		if err != nil {
			t.Fatalf("%s: format: %v", name, err)
		}
		back, err := f.parse(s, src)
		if err != nil {
			t.Fatalf("%s: reparse: %v", name, err)
		}
		if len(back) != len(txns) {
			t.Fatalf("%s: %d transactions back, want %d", name, len(back), len(txns))
		}
		for i := range txns {
			want := db.F(floats[i])
			ups := back[i].Updates
			if len(ups) != 3 {
				t.Fatalf("%s: transaction %d (%v) came back with %d updates", name, i, want, len(ups))
			}
			got := []db.Value{ups[0].Row[1], ups[1].Sel[1].Value(), ups[2].Sel[1].NotEq()[0]}
			for j, g := range got {
				if g != want {
					t.Errorf("%s: float %v position %d came back as %v", name, want, j, g)
				}
			}
			if g := ups[1].Set[1].Val; g != db.F(-floats[i]) {
				t.Errorf("%s: SET to %v came back as %v", name, db.F(-floats[i]), g)
			}
		}
	}
}
