package db_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hyperprov/internal/db"
)

// productsSchema is the running example of the paper (Figure 1).
func productsSchema() *db.Schema {
	return db.MustSchema(db.MustRelationSchema("Products",
		db.Attribute{Name: "Product", Kind: db.KindString},
		db.Attribute{Name: "Category", Kind: db.KindString},
		db.Attribute{Name: "Price", Kind: db.KindInt},
	))
}

func productsDB(t *testing.T) *db.Database {
	t.Helper()
	d := db.NewDatabase(productsSchema())
	rows := []db.Tuple{
		{db.S("Kids mnt bike"), db.S("Sport"), db.I(120)},
		{db.S("Tennis Racket"), db.S("Sport"), db.I(70)},
		{db.S("Kids mnt bike"), db.S("Kids"), db.I(120)},
		{db.S("Children sneakers"), db.S("Fashion"), db.I(40)},
	}
	for _, r := range rows {
		if err := d.InsertTuple("Products", r); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestValues(t *testing.T) {
	if db.S("a") == db.S("b") || db.I(1) == db.I(2) || db.I(0) == db.F(0) {
		t.Error("distinct values compare equal")
	}
	if db.S("a") != db.S("a") {
		t.Error("equal values compare unequal")
	}
	for _, v := range []db.Value{db.S("hello world"), db.I(-42), db.F(3.25)} {
		back, err := db.ParseValue(v.Kind(), v.String())
		if err != nil || back != v {
			t.Errorf("ParseValue(%v) = %v, %v", v, back, err)
		}
	}
	if _, err := db.ParseValue(db.KindInt, "xyz"); err == nil {
		t.Error("ParseValue must reject bad ints")
	}
}

func TestTupleKeyInjective(t *testing.T) {
	// Keys must distinguish tuples that naive string joins would not.
	pairs := [][2]db.Tuple{
		{{db.S("ab"), db.S("c")}, {db.S("a"), db.S("bc")}},
		{{db.S("1")}, {db.I(1)}},
		{{db.S("")}, {db.S(" ")}},
		{{db.I(12), db.I(3)}, {db.I(1), db.I(23)}},
	}
	for _, p := range pairs {
		if p[0].Key() == p[1].Key() {
			t.Errorf("tuples %v and %v share key %q", p[0], p[1], p[0].Key())
		}
	}
	if (db.Tuple{db.S("x"), db.I(1)}).Key() != (db.Tuple{db.S("x"), db.I(1)}).Key() {
		t.Error("equal tuples must share keys")
	}
}

func TestTupleKeyInjectiveProperty(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	randTuple := func() db.Tuple {
		n := 1 + r.Intn(3)
		tup := make(db.Tuple, n)
		for i := range tup {
			switch r.Intn(3) {
			case 0:
				tup[i] = db.S(string(rune('a'+r.Intn(4))) + strings.Repeat("|", r.Intn(3)))
			case 1:
				tup[i] = db.I(int64(r.Intn(5)))
			default:
				tup[i] = db.F(float64(r.Intn(3)) / 2)
			}
		}
		return tup
	}
	f := func() bool {
		a, b := randTuple(), randTuple()
		return a.Equal(b) == (a.Key() == b.Key())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPatternMatching(t *testing.T) {
	// Example 2.1: products([p ≠ "Kids mnt bike"], "Sport", c).
	sel := db.Pattern{
		db.VarNotEq("p", db.S("Kids mnt bike")),
		db.Const(db.S("Sport")),
		db.AnyVar("c"),
	}
	if !sel.Matches(db.Tuple{db.S("Tennis Racket"), db.S("Sport"), db.I(70)}) {
		t.Error("Tennis Racket should match (Example 2.1)")
	}
	if sel.Matches(db.Tuple{db.S("Kids mnt bike"), db.S("Sport"), db.I(120)}) {
		t.Error("Kids mnt bike must not match the disequality")
	}
	if sel.Matches(db.Tuple{db.S("Tennis Racket"), db.S("Kids"), db.I(70)}) {
		t.Error("category mismatch must not match")
	}
}

func TestPatternValidate(t *testing.T) {
	rel := productsSchema().Relation("Products")
	good := db.Pattern{db.AnyVar("a"), db.Const(db.S("Sport")), db.AnyVar("b")}
	if err := good.Validate(rel); err != nil {
		t.Errorf("valid pattern rejected: %v", err)
	}
	badArity := db.Pattern{db.AnyVar("a")}
	if err := badArity.Validate(rel); err == nil {
		t.Error("arity mismatch accepted")
	}
	badKind := db.Pattern{db.AnyVar("a"), db.Const(db.I(3)), db.AnyVar("b")}
	if err := badKind.Validate(rel); err == nil {
		t.Error("kind mismatch accepted")
	}
	repeated := db.Pattern{db.AnyVar("a"), db.AnyVar("a"), db.AnyVar("b")}
	if err := repeated.Validate(rel); err == nil {
		t.Error("repeated variable accepted (breaks the hyperplane fragment)")
	}
	badNE := db.Pattern{db.VarNotEq("a", db.I(1)), db.AnyVar("b"), db.AnyVar("c")}
	if err := badNE.Validate(rel); err == nil {
		t.Error("disequality kind mismatch accepted")
	}
}

func TestInsertDeleteModifyExamples(t *testing.T) {
	// Examples 2.2–2.4 run as a transaction and produce Figure 1b.
	d := productsDB(t)
	txn := db.Transaction{Label: "p", Updates: []db.Update{
		db.Insert("Products", db.Tuple{db.S("Lego bricks"), db.S("Kids"), db.I(90)}),
		db.Delete("Products", db.Pattern{db.AnyVar("a"), db.Const(db.S("Fashion")), db.AnyVar("b")}),
		db.Modify("Products",
			db.Pattern{db.Const(db.S("Kids mnt bike")), db.AnyVar("a"), db.AnyVar("b")},
			[]db.SetClause{db.Keep(), db.SetTo(db.S("Bicycles")), db.Keep()}),
	}}
	if err := txn.Validate(d.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := d.ApplyTransaction(&txn); err != nil {
		t.Fatal(err)
	}
	in := d.Instance("Products")
	if in.Len() != 3 {
		t.Fatalf("got %d tuples, want 3 (Figure 1b): %v", in.Len(), in.Tuples())
	}
	want := []db.Tuple{
		{db.S("Kids mnt bike"), db.S("Bicycles"), db.I(120)},
		{db.S("Tennis Racket"), db.S("Sport"), db.I(70)},
		{db.S("Lego bricks"), db.S("Kids"), db.I(90)},
	}
	for _, w := range want {
		if !in.Contains(w) {
			t.Errorf("missing tuple %v", w)
		}
	}
}

func TestModifyCollapsesTuples(t *testing.T) {
	// Example 2.4: both Kids mnt bike tuples collapse into one.
	d := productsDB(t)
	mod := db.Modify("Products",
		db.Pattern{db.Const(db.S("Kids mnt bike")), db.AnyVar("a"), db.AnyVar("b")},
		[]db.SetClause{db.Keep(), db.SetTo(db.S("Bicycles")), db.Keep()})
	if err := d.Apply(mod); err != nil {
		t.Fatal(err)
	}
	in := d.Instance("Products")
	if in.Len() != 3 {
		t.Fatalf("got %d tuples, want 3 after collapse", in.Len())
	}
	if !in.Contains(db.Tuple{db.S("Kids mnt bike"), db.S("Bicycles"), db.I(120)}) {
		t.Error("collapsed tuple missing")
	}
}

func TestModifySelfMapIsNoOp(t *testing.T) {
	d := productsDB(t)
	before := d.Clone()
	// Set Category of Sport products to Sport: identity.
	mod := db.Modify("Products",
		db.Pattern{db.AnyVar("a"), db.Const(db.S("Sport")), db.AnyVar("b")},
		[]db.SetClause{db.Keep(), db.SetTo(db.S("Sport")), db.Keep()})
	if err := d.Apply(mod); err != nil {
		t.Fatal(err)
	}
	if !d.Equal(before) {
		t.Errorf("identity modify changed the database:\n%s", d.Diff(before))
	}
}

func TestDeleteOnEmptySelection(t *testing.T) {
	d := productsDB(t)
	before := d.NumTuples()
	del := db.Delete("Products", db.Pattern{db.AnyVar("a"), db.Const(db.S("Toys")), db.AnyVar("b")})
	if err := d.Apply(del); err != nil {
		t.Fatal(err)
	}
	if d.NumTuples() != before {
		t.Error("deleting a non-matching selection changed the database")
	}
}

func TestInsertIdempotent(t *testing.T) {
	d := productsDB(t)
	row := db.Tuple{db.S("Tennis Racket"), db.S("Sport"), db.I(70)}
	if err := d.Apply(db.Insert("Products", row)); err != nil {
		t.Fatal(err)
	}
	if d.Instance("Products").Len() != 4 {
		t.Error("set semantics: re-inserting an existing tuple must not grow the relation")
	}
}

func TestUpdateValidate(t *testing.T) {
	s := productsSchema()
	bad := []db.Update{
		db.Insert("Nope", db.Tuple{db.S("x")}),
		db.Insert("Products", db.Tuple{db.S("x")}),
		db.Insert("Products", db.Tuple{db.S("x"), db.S("y"), db.S("z")}),
		db.Modify("Products", db.AllPattern(3), []db.SetClause{db.Keep()}),
		db.Modify("Products", db.AllPattern(3), []db.SetClause{db.Keep(), db.SetTo(db.I(1)), db.Keep()}),
	}
	for i, u := range bad {
		if err := u.Validate(s); err == nil {
			t.Errorf("bad update %d accepted: %v", i, u)
		}
	}
	good := db.Modify("Products", db.AllPattern(3), []db.SetClause{db.Keep(), db.SetTo(db.S("All")), db.Keep()})
	if err := good.Validate(s); err != nil {
		t.Errorf("good update rejected: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	d := productsDB(t)
	c := d.Clone()
	if err := c.Apply(db.Delete("Products", db.AllPattern(3))); err != nil {
		t.Fatal(err)
	}
	if c.NumTuples() != 0 || d.NumTuples() != 4 {
		t.Error("Clone must be independent")
	}
	if d.Equal(c) {
		t.Error("Equal must detect the difference")
	}
}

// TestEqualCatchesReusedTuple: a tuple whose backing array is
// overwritten after insertion (a lent tuple kept without a Clone) no
// longer matches the key it is filed under, and Equal against a fresh
// copy says so; Diff names the row.
func TestEqualCatchesReusedTuple(t *testing.T) {
	buf := db.Tuple{db.S("Kids mnt bike"), db.S("Sport"), db.I(120)}
	fresh, shared := db.NewDatabase(productsSchema()), db.NewDatabase(productsSchema())
	if err := fresh.InsertTuple("Products", buf.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := shared.InsertTuple("Products", buf); err != nil {
		t.Fatal(err)
	}
	if !shared.Equal(fresh) {
		t.Fatalf("equal databases compare unequal: %s", shared.Diff(fresh))
	}
	buf[1], buf[2] = db.S("Kids"), db.I(90)
	if shared.Equal(fresh) || fresh.Equal(shared) {
		t.Fatal("a tuple overwritten after insertion compares equal to the row it was")
	}
	if diff := shared.Diff(fresh); !strings.Contains(diff, "(Kids mnt bike, Kids, 90) on left is not filed under its key") {
		t.Fatalf("Diff does not name the overwritten row:\n%s", diff)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := productsDB(t)
	var buf bytes.Buffer
	if err := db.WriteCSV(&buf, d.Instance("Products")); err != nil {
		t.Fatal(err)
	}
	back, err := db.LoadCSVRelation("Products", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(d) {
		t.Errorf("CSV round trip lost tuples:\n%s", back.Diff(d))
	}
	// And into a pre-declared schema.
	d2 := db.NewDatabase(productsSchema())
	n, err := db.ReadCSV(d2, "Products", bytes.NewReader(buf.Bytes()))
	if err != nil || n != 4 {
		t.Fatalf("ReadCSV = %d, %v", n, err)
	}
	if !d2.Equal(d) {
		t.Error("ReadCSV into schema diverged")
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := db.LoadCSVRelation("R", strings.NewReader("a,b\n1,2\n")); err == nil {
		t.Error("header without kinds accepted")
	}
	if _, err := db.LoadCSVRelation("R", strings.NewReader("a:int\nxyz\n")); err == nil {
		t.Error("bad int accepted")
	}
}

func TestUpdateString(t *testing.T) {
	ins := db.Insert("Products", db.Tuple{db.S("Lego bricks"), db.S("Kids"), db.I(90)})
	if got := ins.String(); !strings.Contains(got, "Products+") {
		t.Errorf("insert String = %q", got)
	}
	del := db.Delete("Products", db.Pattern{db.AnyVar("a"), db.Const(db.S("Fashion")), db.AnyVar("b")})
	if got := del.String(); !strings.Contains(got, "Products-") || !strings.Contains(got, "Fashion") {
		t.Errorf("delete String = %q", got)
	}
	mod := db.Modify("Products", db.AllPattern(3), []db.SetClause{db.Keep(), db.SetTo(db.S("X")), db.Keep()})
	if got := mod.String(); !strings.Contains(got, "ProductsM") {
		t.Errorf("modify String = %q", got)
	}
}

func TestSchemaHelpers(t *testing.T) {
	s := productsSchema()
	rel := s.Relation("Products")
	if rel.AttrIndex("Category") != 1 || rel.AttrIndex("Nope") != -1 {
		t.Error("AttrIndex misbehaves")
	}
	if rel.Arity() != 3 {
		t.Error("Arity misbehaves")
	}
	if got := rel.String(); !strings.Contains(got, "Category:string") {
		t.Errorf("RelationSchema.String = %q", got)
	}
	if _, err := db.NewRelationSchema("R", db.Attribute{Name: "a"}, db.Attribute{Name: "a"}); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := db.NewSchema(rel, rel); err == nil {
		t.Error("duplicate relation accepted")
	}
}

// TestAppendTargetProperty: over seeded random tuples and set clauses
// (keep, or set a string, an int or a float), AppendTarget(buf, t) equals
// Target(t), writes into buf's backing array whenever it is large enough,
// and never writes into t.
func TestAppendTargetProperty(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	value := func() db.Value {
		switch r.Intn(3) {
		case 0:
			return db.S(string(rune('a' + r.Intn(4))))
		case 1:
			return db.I(int64(r.Intn(5)))
		default:
			return db.F(float64(r.Intn(3)) / 2)
		}
	}
	var buf db.Tuple
	for range 2000 {
		n := 1 + r.Intn(6)
		tup, set := make(db.Tuple, n), make([]db.SetClause, n)
		for i := range tup {
			tup[i] = value()
			if r.Intn(2) == 0 {
				set[i] = db.SetTo(value())
			}
		}
		u := db.Modify("R", nil, set)
		orig := tup.Clone()
		if r.Intn(4) == 0 {
			buf = nil // now and then start over, so the buffer grows again
		}
		reuse := cap(buf) >= n
		backing := buf[:cap(buf)]
		got := u.AppendTarget(buf, tup)
		want := u.Target(tup)
		if !got.Equal(want) || len(got) != n {
			t.Fatalf("AppendTarget(%v) with %v = %v, Target = %v", orig, set, got, want)
		}
		if reuse && &got[0] != &backing[0] {
			t.Fatalf("AppendTarget into a buffer of capacity %d ≥ %d allocated", len(backing), n)
		}
		if !tup.Equal(orig) {
			t.Fatalf("AppendTarget wrote into its source: %v, was %v", tup, orig)
		}
		if &want[0] == &tup[0] || &want[0] == &got[0] {
			t.Fatal("Target returned a tuple sharing its source's or the buffer's array")
		}
		for i, c := range set {
			w := orig[i]
			if c.Set {
				w = c.Val
			}
			if want[i] != w {
				t.Fatalf("Target(%v)[%d] = %v under %+v, want %v", orig, i, want[i], c, w)
			}
		}
		buf = got
	}
}
