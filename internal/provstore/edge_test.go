package provstore

import (
	"bufio"
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
)

// Added at run time: as constants 0.1 + 0.2 is exactly 0.3.
var tenth, fifth = 0.1, 0.2

// edgeFloats are the floats the short forms must not bend: both zeros,
// quiet and signalling NaNs with payloads, the infinities, a sum that is
// not the decimal it prints as, and integers and hundredths on both
// sides of the short forms' limit.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.25, 2.5, -1234567.25, 1e-7, tenth + fifth, 0.3, 1234.56, -0.07, 99999999.99,
	math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000abcdef), math.Float64frombits(0x7ff0000000000001),
	math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	1 << 53, 1<<53 + 2, -(1 << 53), 1<<50 - 1, 1 << 50, -(1<<50 - 1), -(1 << 50),
	(1<<50 - 1) / 100.0, (1 << 50) / 100.0, 11258999068426.23, 11258999068426.25, 1e15 + 0.3,
}

// TestFloatFormsAreExact: whatever AppendFloat writes, readFloat reads
// back to the bit; integers and hundredths below the limit take a short
// form, and nothing takes more than the raw nine bytes.
func TestFloatFormsAreExact(t *testing.T) {
	check := func(f float64, wantShort bool) {
		t.Helper()
		enc := AppendFloat(nil, f)
		got, err := readFloat(bufio.NewReader(bytes.NewReader(enc)))
		if err != nil || math.Float64bits(got) != math.Float64bits(f) {
			t.Fatalf("%v (%#x) encoded as %x read back as %v (%#x), err %v", f, math.Float64bits(f), enc, got, math.Float64bits(got), err)
		}
		if len(enc) > 9 || wantShort && len(enc) > 8 {
			t.Fatalf("%v took %d bytes (short form wanted: %v)", f, len(enc), wantShort)
		}
	}
	for _, f := range edgeFloats {
		check(f, false)
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		check(math.Float64frombits(r.Uint64()), false)
		n := r.Int63n(1<<50) - 1<<49
		check(float64(n), true)
		check(float64(n%(1<<40))/100, true)
	}
	for _, f := range []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), tenth + fifth, 1 << 50} {
		if enc := AppendFloat(nil, f); len(enc) != 9 || enc[0] != 0 {
			t.Errorf("%v encoded as %x, want the raw form", f, enc)
		}
	}
}

// rowsSource streams a fixed row list.
type rowsSource struct {
	schema *db.Schema
	rels   []string
	tuples []db.Tuple
	anns   []*core.Expr
}

func (s *rowsSource) add(rel string, ann *core.Expr, vals ...db.Value) {
	s.rels, s.tuples, s.anns = append(s.rels, rel), append(s.tuples, vals), append(s.anns, ann)
}
func (s *rowsSource) Mode() engine.Mode  { return engine.ModeNormalForm }
func (s *rowsSource) Schema() *db.Schema { return s.schema }
func (s *rowsSource) Rows(f func(string, db.Tuple, *core.Expr)) {
	for i := range s.rels {
		f(s.rels[i], s.tuples[i], s.anns[i])
	}
}

// TestSnapshotEdgeValues round-trips, against the oracle's bytes, the
// values and shapes the row encoding special-cases: the edge floats,
// integer deltas that wrap, empty and 64 KiB strings, a repeated row
// prefix, relations with no rows and one with no attributes, and rows
// whose annotation is a node some earlier row emitted — the one just
// before, one far back, the child of another row's.
func TestSnapshotEdgeValues(t *testing.T) {
	src := &rowsSource{schema: db.MustSchema(
		db.MustRelationSchema("Empty0", db.Attribute{Name: "a", Kind: db.KindString}),
		db.MustRelationSchema("F", db.Attribute{Name: "k", Kind: db.KindInt}, db.Attribute{Name: "f", Kind: db.KindFloat}),
		db.MustRelationSchema("I", db.Attribute{Name: "i", Kind: db.KindInt}, db.Attribute{Name: "j", Kind: db.KindInt}),
		db.MustRelationSchema("Empty1", db.Attribute{Name: "a", Kind: db.KindFloat}),
		db.MustRelationSchema("S", db.Attribute{Name: "k", Kind: db.KindInt}, db.Attribute{Name: "s", Kind: db.KindString}, db.Attribute{Name: "u", Kind: db.KindString}),
		db.MustRelationSchema("Wide",
			db.Attribute{Name: "c0", Kind: db.KindInt}, db.Attribute{Name: "c1", Kind: db.KindString}, db.Attribute{Name: "c2", Kind: db.KindFloat},
			db.Attribute{Name: "c3", Kind: db.KindInt}, db.Attribute{Name: "c4", Kind: db.KindInt}, db.Attribute{Name: "c5", Kind: db.KindInt},
			db.Attribute{Name: "c6", Kind: db.KindInt}, db.Attribute{Name: "c7", Kind: db.KindInt}, db.Attribute{Name: "c8", Kind: db.KindString}),
		db.MustRelationSchema("Nullary"),
		db.MustRelationSchema("Empty2", db.Attribute{Name: "a", Kind: db.KindInt}),
	)}
	x, y, p, q := core.TupleVar("x"), core.TupleVar("y"), core.QueryVar("p"), core.QueryVar("q")
	child := core.Minus(x, p)
	parent := core.PlusM(child, core.DotM(core.Sum(x, y), q))
	for i, f := range edgeFloats {
		// Every other float repeats the row before it: the mask's case.
		src.add("F", core.TupleVar("f"), db.I(int64(2*i)), db.F(f))
		src.add("F", parent, db.I(int64(2*i+1)), db.F(f))
	}
	ints := []int64{0, 0, 1, -1, math.MaxInt64, math.MinInt64, math.MaxInt64, 0, math.MinInt64, -1, math.MinInt64 + 1, 1 << 62, -(1 << 62)}
	for i, v := range ints {
		src.add("I", core.PlusI(core.TupleVar("i"), core.QueryVar(strings.Repeat("q", i+1))), db.I(v), db.I(int64(i)))
	}
	big := strings.Repeat("64 KiB of string ", 4096)[:64<<10]
	for i, s := range []string{"", "a", "", big, "a", "naïve ✓", big, "b", ""} {
		src.add("S", child, db.I(int64(i)), db.S(s), db.S(big[:i]))
	}
	// Rows that differ from their predecessor in one column each, first
	// and ninth included: both mask bytes, every bit.
	wide := db.Tuple{db.I(0), db.S(""), db.F(0), db.I(0), db.I(0), db.I(0), db.I(0), db.I(0), db.S("")}
	src.add("Wide", x, wide...)
	for j := range wide {
		next := wide.Clone()
		switch next[j].Kind() {
		case db.KindInt:
			next[j] = db.I(int64(j) + 1)
		case db.KindFloat:
			next[j] = db.F(0.5)
		default:
			next[j] = db.S(strings.Repeat("w", j))
		}
		src.add("Wide", core.Zero(), next...)
		wide = next
	}
	src.add("Nullary", y)
	raw := mustRoundTripOracle(t, "edge values", src)

	back, err := LoadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for i, tu := range src.tuples {
		got := back.Annotation(src.rels[i], tu)
		if got == nil || !got.Equal(src.anns[i]) {
			t.Fatalf("%s row %d: annotation %v, want %v", src.rels[i], i, got, src.anns[i])
		}
	}
	if back.NumRows() != len(src.tuples) {
		t.Fatalf("%d rows restored, want %d", back.NumRows(), len(src.tuples))
	}
}

// TestSnapshotLeafFormInvisible: version 3 decides runs and indexes from
// a variable's name alone. A prefix whose first variables were interned
// by name before core.Vars made the rest range leaves saves the bytes of
// a prefix of the same length that is range leaves throughout, and both
// load back to their states.
func TestSnapshotLeafFormInvisible(t *testing.T) {
	schema := db.MustSchema(db.MustRelationSchema("L", db.Attribute{Name: "k", Kind: db.KindInt}))
	save := func(prefix string, named int) []byte {
		for i := range named {
			core.TupleVar(prefix + strconv.Itoa(i))
		}
		leaves := core.Vars(prefix, core.KindTuple, 0, 40)
		src := &rowsSource{schema: schema}
		for k, x := range leaves {
			src.add("L", x, db.I(int64(k)))
		}
		sum := core.PlusI(leaves[5], core.QueryVar(prefix+"q3"))
		src.add("L", sum, db.I(40))
		src.add("L", sum, db.I(41))
		src.add("L", core.TupleVar(prefix+"100"), db.I(42))
		src.add("L", core.TupleVar(prefix+"05"), db.I(43))
		return mustRoundTripOracle(t, prefix, src)
	}
	mixed, ranged := save("leafmixed", 20), save("leafrange", 0)
	if got := bytes.ReplaceAll(mixed, []byte("leafmixed"), []byte("leafrange")); !bytes.Equal(got, ranged) {
		t.Fatalf("named and range leaves saved differently:\n%x\n%x", got, ranged)
	}
}
