package parser

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hyperprov/internal/db"
	"hyperprov/internal/tpcc"
)

// Differential tests of the pull-lexer front end against the eager one
// in oracle_test.go: same tokens, same transactions, same verdicts.

func diffSchema() *db.Schema {
	return db.MustSchema(
		db.MustRelationSchema("Products",
			db.Attribute{Name: "Product", Kind: db.KindString},
			db.Attribute{Name: "Category", Kind: db.KindString},
			db.Attribute{Name: "Price", Kind: db.KindInt}),
		db.MustRelationSchema("M",
			db.Attribute{Name: "id", Kind: db.KindInt},
			db.Attribute{Name: "X_Val", Kind: db.KindFloat},
			db.Attribute{Name: "tag", Kind: db.KindString}),
	)
}

var diffStrings = []string{
	"", "a", "Sport", "O'Neil", "''", "it''s", `say "hi"`, "-- not a comment", "a;b", "x<>y", "BEGIN", "COMMIT",
	"naïve", "漢字", "tab\there", "1e6", ":-", "->", "!=", "Kids mnt bike",
}

var diffFloats = []float64{
	0, 1, -1, 0.5, 999999, 1e6, 1.00004346e+06, 1e21, 1.5e21, 1e300, math.MaxFloat64,
	1e-4, 9.99e-5, 1e-7, 5e-324, -1e6, -1e-7, -1234567.25,
}

func randValue(r *rand.Rand, k db.Kind) db.Value {
	switch k {
	case db.KindInt:
		return db.I(int64(r.Intn(2000) - 1000))
	case db.KindFloat:
		return db.F(diffFloats[r.Intn(len(diffFloats))])
	default:
		return db.S(diffStrings[r.Intn(len(diffStrings))])
	}
}

// randTxns draws transactions covering every statement shape both
// formatters can render: inserts, deletes with and without predicates,
// several disequalities on one attribute, multi-attribute SETs.
func randTxns(r *rand.Rand, s *db.Schema, n int) []db.Transaction {
	txns := make([]db.Transaction, n)
	for i := range txns {
		txns[i].Label = fmt.Sprintf("t%d_%c", i, 'a'+rune(r.Intn(26)))
		for q := r.Intn(5); q >= 0; q-- {
			rel := s.Relation(s.Names()[r.Intn(len(s.Names()))])
			pattern := func() db.Pattern {
				p := make(db.Pattern, rel.Arity())
				for j, a := range rel.Attrs {
					name := fmt.Sprintf("v%d", j)
					switch r.Intn(4) {
					case 0:
						p[j] = db.Const(randValue(r, a.Kind))
					case 1:
						ne := make([]db.Value, 1+r.Intn(3))
						for k := range ne {
							ne[k] = randValue(r, a.Kind)
						}
						p[j] = db.VarNotEq(name, ne...)
					default:
						p[j] = db.AnyVar(name)
					}
				}
				return p
			}
			switch r.Intn(3) {
			case 0:
				row := make(db.Tuple, rel.Arity())
				for j, a := range rel.Attrs {
					row[j] = randValue(r, a.Kind)
				}
				txns[i].Updates = append(txns[i].Updates, db.Insert(rel.Name, row))
			case 1:
				txns[i].Updates = append(txns[i].Updates, db.Delete(rel.Name, pattern()))
			default:
				set := make([]db.SetClause, rel.Arity())
				set[r.Intn(len(set))] = db.SetTo(randValue(r, rel.Attrs[0].Kind))
				for j, a := range rel.Attrs {
					if set[j].Set || r.Intn(3) == 0 {
						set[j] = db.SetTo(randValue(r, a.Kind))
					}
				}
				txns[i].Updates = append(txns[i].Updates, db.Modify(rel.Name, pattern(), set))
			}
		}
	}
	return txns
}

// decorate sprinkles what the formatters never emit but the grammar
// takes: comments, != for <>, bare statements, odd spacing.
func decorate(r *rand.Rand, src string) string {
	lines := strings.SplitAfter(src, "\n")
	var b strings.Builder
	for _, ln := range lines {
		if r.Intn(6) == 0 {
			b.WriteString("-- a 'comment' with \"quotes\n")
		}
		if r.Intn(4) == 0 {
			ln = strings.Replace(ln, " <> ", " != ", 1)
		}
		if r.Intn(8) == 0 {
			ln = "\t " + ln
		}
		b.WriteString(ln)
	}
	return b.String()
}

func mutate(r *rand.Rand, src string) string {
	b := []byte(src)
	alphabet := []byte("'\"-;,()=<>!:[] \n\t0e.+xM\xe9\xa0\x85\x00")
	for k := 1 + r.Intn(3); k > 0 && len(b) > 0; k-- {
		i := r.Intn(len(b))
		switch r.Intn(3) {
		case 0:
			b[i] = alphabet[r.Intn(len(alphabet))]
		case 1:
			b = append(b[:i], b[i+1:]...)
		default:
			b = append(b[:i], append([]byte{alphabet[r.Intn(len(alphabet))]}, b[i:]...)...)
		}
	}
	return string(b)
}

type frontEnd struct {
	name     string
	format   func(*db.Schema, []db.Transaction) (string, error)
	parse    func(*db.Schema, string) ([]db.Transaction, error)
	oracle   func(*db.Schema, string) ([]db.Transaction, error)
	decorate bool
}

var frontEnds = []frontEnd{
	{"sql", FormatSQLLog, ParseSQLLog, oracleParseSQLLog, true},
	{"datalog", FormatDatalogLog, ParseDatalogLog, oracleParseDatalogLog, false},
}

// agree checks one input: both sides accept with deep-equal results, or
// both reject — with the same text, unless the oracle's complaint is an
// unterminated string, which it reports ahead of any syntax error
// before it and the pull lexer reports only on reaching it.
func agree(t *testing.T, fe frontEnd, s *db.Schema, src string) (accepted bool) {
	t.Helper()
	got, gerr := fe.parse(s, src)
	want, werr := fe.oracle(s, src)
	switch {
	case (gerr == nil) != (werr == nil):
		t.Fatalf("%s: verdicts differ on %q:\n new:    %v\n oracle: %v", fe.name, src, gerr, werr)
	case gerr != nil:
		if gerr.Error() != werr.Error() && !strings.Contains(werr.Error(), "unterminated string") {
			t.Fatalf("%s: error texts differ on %q:\n new:    %v\n oracle: %v", fe.name, src, gerr, werr)
		}
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%s: results differ on %q:\n new:    %v\n oracle: %v", fe.name, src, got, want)
	}
	return gerr == nil
}

func TestFrontEndDifferential(t *testing.T) {
	s := diffSchema()
	for _, fe := range frontEnds {
		for seed := int64(0); seed < 40; seed++ {
			r := rand.New(rand.NewSource(seed))
			src, err := fe.format(s, randTxns(r, s, 1+r.Intn(6)))
			if err != nil {
				t.Fatal(err)
			}
			if fe.decorate {
				src = decorate(r, src)
			}
			if !agree(t, fe, s, src) {
				t.Fatalf("%s: formatter output rejected: %q", fe.name, src)
			}
			accepted := 0
			for m := 0; m < 60; m++ {
				if agree(t, fe, s, mutate(r, src)) {
					accepted++
				}
			}
			if seed == 0 && accepted == 60 {
				t.Fatalf("%s: no mutation was rejected — the mutator is not biting", fe.name)
			}
		}
	}
}

// TestSingleQueryEntryPointsDifferential covers ParseSQLStatement and
// ParseDatalogQuery, the entry points that take one query and check for
// trailing input themselves.
func TestSingleQueryEntryPointsDifferential(t *testing.T) {
	s := diffSchema()
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 300; i++ {
		u := randTxns(r, s, 1)[0].Updates[0]
		stmt, err := FormatSQL(s, u)
		if err != nil {
			t.Fatal(err)
		}
		query, err := FormatDatalog(s, u, "lbl")
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []string{stmt, stmt + ";", stmt + "; x", mutate(r, stmt)} {
			got, gerr := ParseSQLStatement(s, src)
			want, werr := oracleParseSQLStatement(s, src)
			if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("ParseSQLStatement(%q):\n new:    %v, %v\n oracle: %v, %v", src, got, gerr, want, werr)
			}
		}
		for _, src := range []string{query, query + " x", mutate(r, query)} {
			got, gl, gerr := ParseDatalogQuery(s, src)
			want, wl, werr := oracleParseDatalogQuery(s, src)
			if (gerr == nil) != (werr == nil) || gl != wl || !reflect.DeepEqual(got, want) {
				t.Fatalf("ParseDatalogQuery(%q):\n new:    %v, %q, %v\n oracle: %v, %q, %v", src, got, gl, gerr, want, wl, werr)
			}
		}
	}
}

// TestFrontEndDifferentialTPCC runs the benchmark's own transaction mix
// through both front ends.
func TestFrontEndDifferentialTPCC(t *testing.T) {
	s := tpcc.Schema()
	txns := tpcc.NewGenerator(tpcc.DefaultConfig()).Transactions(60)
	for _, fe := range frontEnds {
		src, err := fe.format(s, txns)
		if err != nil {
			t.Fatal(err)
		}
		if !agree(t, fe, s, src) {
			t.Fatalf("%s: TPC-C log rejected", fe.name)
		}
	}
}

// TestLexerTokensMatchOracle compares the token streams themselves,
// Latin-1 letters and spaces, every two-rune operator and the
// number/identifier boundary cases included.
func TestLexerTokensMatchOracle(t *testing.T) {
	inputs := []string{
		"", " ", "a", "a1_b", "_x", "1", "-1", "1.5e+6x", "1e", "1e+", "1e-7", "-.5", "--c\nx", "a--b", "- -1", "--",
		"<>", "!=", ":-", "->", "<", "-", "!", ":", "- >", "<>>", "a<>b!=c:-d->e", "''", "'a''b'", `"a""b"`, `'a"b'`,
		"x\xe9y", "\xa0a\x85b", "\xe9", "\x80", "\xff\xfe", "a\x00b", "(,);[]=+", "caf\xc3\xa9 ok",
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		inputs = append(inputs, mutate(r, "UPDATE M SET X_Val = 1.5e-7, tag = 'it''s' WHERE id <> -3 AND tag != \"q\" -- c\n;"))
	}
	for _, src := range inputs {
		ol, oerr := newOracleLexer(src)
		var l lexer
		l.init(src)
		var got []token
		for {
			tok := l.next()
			got = append(got, tok)
			if tok.kind == tokEOF {
				break
			}
		}
		if oerr != nil {
			if l.err == nil || l.err.Error() != oerr.Error() {
				t.Fatalf("%q: oracle fails with %v, pull lexer with %v", src, oerr, l.err)
			}
			continue
		}
		if l.err != nil {
			t.Fatalf("%q: pull lexer fails with %v, oracle does not", src, l.err)
		}
		if !reflect.DeepEqual(got, ol.toks) {
			t.Fatalf("%q: tokens differ:\n new:    %v\n oracle: %v", src, got, ol.toks)
		}
	}
}

// TestErrorsComeInSourceOrder pins the one deliberate difference from
// the eager lexer: it scanned the whole input first, so an unterminated
// string anywhere hid every syntax error before it.
func TestErrorsComeInSourceOrder(t *testing.T) {
	s := diffSchema()
	src := "DELETE FROM Products WHERE Price < 3;\nDELETE FROM Products WHERE Product = 'open;\n"
	_, err := ParseSQLLog(s, src)
	if err == nil || !strings.Contains(err.Error(), "expected = or <> at offset 33") {
		t.Fatalf("pull lexer: got %v, want the syntax error at offset 33", err)
	}
	if _, oerr := oracleParseSQLLog(s, src); oerr == nil || !strings.Contains(oerr.Error(), "unterminated string") {
		t.Fatalf("oracle: got %v, want the unterminated string", oerr)
	}
	// Alone, the unterminated string is reported as it always was.
	_, err = ParseSQLLog(s, "DELETE FROM Products WHERE Product = 'open;\n")
	if err == nil || err.Error() != "parser: unterminated string at offset 37" {
		t.Fatalf("got %v", err)
	}
	_, _, err = ParseDatalogQuery(s, `Products-,p(a, "open, c):-`)
	if err == nil || err.Error() != "parser: unterminated string at offset 15" {
		t.Fatalf("got %v", err)
	}
}
