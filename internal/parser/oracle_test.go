package parser

// The front end as it stood before the pull lexer, kept verbatim (names
// prefixed) as the oracle of the differential tests in diff_test.go: an
// eager scan into a []token, then the two parsers over that slice.

import (
	"fmt"
	"strings"
	"unicode"

	"hyperprov/internal/db"
)

type oracleLexer struct {
	src  string
	pos  int
	toks []token
	i    int
}

func newOracleLexer(src string) (*oracleLexer, error) {
	l := &oracleLexer{src: src}
	if err := l.scan(); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *oracleLexer) scan() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case unicode.IsSpace(rune(c)):
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			// SQL comment to end of line.
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '\'' || c == '"':
			start := l.pos
			quote := c
			l.pos++
			var b strings.Builder
			for {
				if l.pos >= len(l.src) {
					return fmt.Errorf("parser: unterminated string at offset %d", start)
				}
				if l.src[l.pos] == quote {
					if l.pos+1 < len(l.src) && l.src[l.pos+1] == quote {
						b.WriteByte(quote) // doubled quote escapes itself
						l.pos += 2
						continue
					}
					l.pos++
					break
				}
				b.WriteByte(l.src[l.pos])
				l.pos++
			}
			l.toks = append(l.toks, token{kind: tokString, text: b.String(), pos: start})
		case isDigit(c) || (c == '-' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
			start := l.pos
			l.pos++
			for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.') {
				l.pos++
			}
			// Exponent [eE][+-]?digits: db.Value.String renders floats
			// with 'g', so anything from 1e6 up, or below 1e-4, comes back
			// from the formatters in this shape. Taken only when a digit
			// follows, so "1e" stays a number and an identifier.
			if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
				end := l.pos + 1
				if end < len(l.src) && (l.src[end] == '+' || l.src[end] == '-') {
					end++
				}
				if end < len(l.src) && isDigit(l.src[end]) {
					for end < len(l.src) && isDigit(l.src[end]) {
						end++
					}
					l.pos = end
				}
			}
			l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
		case unicode.IsLetter(rune(c)) || c == '_':
			start := l.pos
			for l.pos < len(l.src) && (unicode.IsLetter(rune(l.src[l.pos])) || unicode.IsDigit(rune(l.src[l.pos])) || l.src[l.pos] == '_') {
				l.pos++
			}
			l.toks = append(l.toks, token{kind: tokIdent, text: l.src[start:l.pos], pos: start})
		default:
			start := l.pos
			if rest := l.src[l.pos:]; strings.HasPrefix(rest, "<>") || strings.HasPrefix(rest, "!=") || strings.HasPrefix(rest, ":-") || strings.HasPrefix(rest, "->") {
				l.toks = append(l.toks, token{kind: tokPunct, text: rest[:2], pos: start})
				l.pos += 2
			} else {
				l.toks = append(l.toks, token{kind: tokPunct, text: string(c), pos: start})
				l.pos++
			}
		}
	}
	l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
	return nil
}

func (l *oracleLexer) peek() token { return l.toks[l.i] }

func (l *oracleLexer) next() token {
	t := l.toks[l.i]
	if t.kind != tokEOF {
		l.i++
	}
	return t
}

// acceptPunct consumes the next token if it is the given punctuation.
func (l *oracleLexer) acceptPunct(p string) bool {
	if t := l.peek(); t.kind == tokPunct && t.text == p {
		l.i++
		return true
	}
	return false
}

// acceptKeyword consumes the next token if it is the identifier kw
// (case-insensitive).
func (l *oracleLexer) acceptKeyword(kw string) bool {
	if t := l.peek(); t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		l.i++
		return true
	}
	return false
}

func (l *oracleLexer) expectPunct(p string) error {
	if !l.acceptPunct(p) {
		return fmt.Errorf("parser: expected %q at offset %d, got %q", p, l.peek().pos, l.peek().text)
	}
	return nil
}

func (l *oracleLexer) expectIdent() (string, error) {
	t := l.next()
	if t.kind != tokIdent {
		return "", fmt.Errorf("parser: expected identifier at offset %d, got %q", t.pos, t.text)
	}
	return t.text, nil
}

// oracleParseSQLStatement parses one statement of the hyperplane SQL fragment
// against the schema:
//
//	INSERT INTO Rel VALUES (v1, …, vn)
//	DELETE FROM Rel [WHERE attr op const AND …]
//	UPDATE Rel SET attr = const, … [WHERE attr op const AND …]
//
// with op ∈ {=, <>, !=}. A missing WHERE clause selects every tuple.
func oracleParseSQLStatement(s *db.Schema, stmt string) (db.Update, error) {
	l, err := newOracleLexer(stmt)
	if err != nil {
		return db.Update{}, err
	}
	u, err := oracleSQLStatement(s, l)
	if err != nil {
		return db.Update{}, err
	}
	l.acceptPunct(";")
	if l.peek().kind != tokEOF {
		return db.Update{}, fmt.Errorf("parser: trailing input at offset %d", l.peek().pos)
	}
	return u, nil
}

func oracleSQLStatement(s *db.Schema, l *oracleLexer) (db.Update, error) {
	switch {
	case l.acceptKeyword("INSERT"):
		return oracleParseInsert(s, l)
	case l.acceptKeyword("DELETE"):
		return oracleParseDelete(s, l)
	case l.acceptKeyword("UPDATE"):
		return oracleParseUpdate(s, l)
	default:
		return db.Update{}, fmt.Errorf("parser: expected INSERT, DELETE or UPDATE at offset %d, got %q", l.peek().pos, l.peek().text)
	}
}

func oracleRelation(s *db.Schema, l *oracleLexer) (*db.RelationSchema, error) {
	name, err := l.expectIdent()
	if err != nil {
		return nil, err
	}
	rel := s.Relation(name)
	if rel == nil {
		return nil, fmt.Errorf("parser: unknown relation %s", name)
	}
	return rel, nil
}

func oracleParseConst(l *oracleLexer, kind db.Kind) (db.Value, error) {
	t := l.next()
	switch t.kind {
	case tokString:
		if kind != db.KindString {
			return db.Value{}, fmt.Errorf("parser: string literal %q where %v expected at offset %d", t.text, kind, t.pos)
		}
		return db.S(t.text), nil
	case tokNumber:
		return db.ParseValue(kind, t.text)
	default:
		return db.Value{}, fmt.Errorf("parser: expected constant at offset %d, got %q", t.pos, t.text)
	}
}

func oracleParseInsert(s *db.Schema, l *oracleLexer) (db.Update, error) {
	if !l.acceptKeyword("INTO") {
		return db.Update{}, fmt.Errorf("parser: expected INTO at offset %d", l.peek().pos)
	}
	rel, err := oracleRelation(s, l)
	if err != nil {
		return db.Update{}, err
	}
	if !l.acceptKeyword("VALUES") {
		return db.Update{}, fmt.Errorf("parser: expected VALUES at offset %d", l.peek().pos)
	}
	if err := l.expectPunct("("); err != nil {
		return db.Update{}, err
	}
	row := make(db.Tuple, 0, rel.Arity())
	for i := 0; i < rel.Arity(); i++ {
		if i > 0 {
			if err := l.expectPunct(","); err != nil {
				return db.Update{}, err
			}
		}
		v, err := oracleParseConst(l, rel.Attrs[i].Kind)
		if err != nil {
			return db.Update{}, err
		}
		row = append(row, v)
	}
	if err := l.expectPunct(")"); err != nil {
		return db.Update{}, err
	}
	u := db.Insert(rel.Name, row)
	return u, u.Validate(s)
}

// oracleParseWhere parses the conjunction of hyperplane predicates into a
// pattern over the relation. Equality predicates become constant terms;
// disequality predicates accumulate on variable terms.
func oracleParseWhere(rel *db.RelationSchema, l *oracleLexer) (db.Pattern, error) {
	type constraint struct {
		eq    *db.Value
		notEq []db.Value
	}
	cons := make([]constraint, rel.Arity())
	if l.acceptKeyword("WHERE") {
		for {
			attr, err := l.expectIdent()
			if err != nil {
				return nil, err
			}
			col := rel.AttrIndex(attr)
			if col < 0 {
				return nil, fmt.Errorf("parser: relation %s has no attribute %s", rel.Name, attr)
			}
			var neq bool
			switch {
			case l.acceptPunct("="):
			case l.acceptPunct("<>"), l.acceptPunct("!="):
				neq = true
			default:
				return nil, fmt.Errorf("parser: expected = or <> at offset %d (hyperplane predicates compare an attribute to a constant)", l.peek().pos)
			}
			v, err := oracleParseConst(l, rel.Attrs[col].Kind)
			if err != nil {
				return nil, err
			}
			if neq {
				cons[col].notEq = append(cons[col].notEq, v)
			} else {
				if cons[col].eq != nil && *cons[col].eq != v {
					return nil, fmt.Errorf("parser: contradictory equalities on %s", attr)
				}
				cons[col].eq = &v
			}
			if !l.acceptKeyword("AND") {
				break
			}
		}
	}
	p := make(db.Pattern, rel.Arity())
	for i, c := range cons {
		switch {
		case c.eq != nil:
			p[i] = db.Const(*c.eq)
		case len(c.notEq) > 0:
			p[i] = db.VarNotEq(strings.ToLower(rel.Attrs[i].Name), c.notEq...)
		default:
			p[i] = db.AnyVar(strings.ToLower(rel.Attrs[i].Name))
		}
	}
	return p, nil
}

func oracleParseDelete(s *db.Schema, l *oracleLexer) (db.Update, error) {
	if !l.acceptKeyword("FROM") {
		return db.Update{}, fmt.Errorf("parser: expected FROM at offset %d", l.peek().pos)
	}
	rel, err := oracleRelation(s, l)
	if err != nil {
		return db.Update{}, err
	}
	sel, err := oracleParseWhere(rel, l)
	if err != nil {
		return db.Update{}, err
	}
	u := db.Delete(rel.Name, sel)
	return u, u.Validate(s)
}

func oracleParseUpdate(s *db.Schema, l *oracleLexer) (db.Update, error) {
	rel, err := oracleRelation(s, l)
	if err != nil {
		return db.Update{}, err
	}
	if !l.acceptKeyword("SET") {
		return db.Update{}, fmt.Errorf("parser: expected SET at offset %d", l.peek().pos)
	}
	set := make([]db.SetClause, rel.Arity())
	for {
		attr, err := l.expectIdent()
		if err != nil {
			return db.Update{}, err
		}
		col := rel.AttrIndex(attr)
		if col < 0 {
			return db.Update{}, fmt.Errorf("parser: relation %s has no attribute %s", rel.Name, attr)
		}
		if err := l.expectPunct("="); err != nil {
			return db.Update{}, err
		}
		v, err := oracleParseConst(l, rel.Attrs[col].Kind)
		if err != nil {
			return db.Update{}, err
		}
		set[col] = db.SetTo(v)
		if !l.acceptPunct(",") {
			break
		}
	}
	sel, err := oracleParseWhere(rel, l)
	if err != nil {
		return db.Update{}, err
	}
	u := db.Modify(rel.Name, sel, set)
	return u, u.Validate(s)
}

// oracleParseSQLLog parses a transaction log: statements terminated by ';',
// optionally grouped as
//
//	BEGIN label;
//	  …statements…
//	COMMIT;
//
// Statements outside BEGIN/COMMIT become single-query transactions
// labeled q0, q1, …. SQL comments (--) are ignored.
func oracleParseSQLLog(s *db.Schema, src string) ([]db.Transaction, error) {
	l, err := newOracleLexer(src)
	if err != nil {
		return nil, err
	}
	var txns []db.Transaction
	auto := 0
	for l.peek().kind != tokEOF {
		if l.acceptKeyword("BEGIN") {
			label, err := l.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := l.expectPunct(";"); err != nil {
				return nil, err
			}
			txn := db.Transaction{Label: label}
			for !l.acceptKeyword("COMMIT") {
				if l.peek().kind == tokEOF {
					return nil, fmt.Errorf("parser: transaction %s missing COMMIT", label)
				}
				u, err := oracleSQLStatement(s, l)
				if err != nil {
					return nil, err
				}
				if err := l.expectPunct(";"); err != nil {
					return nil, err
				}
				txn.Updates = append(txn.Updates, u)
			}
			if err := l.expectPunct(";"); err != nil {
				return nil, err
			}
			txns = append(txns, txn)
			continue
		}
		u, err := oracleSQLStatement(s, l)
		if err != nil {
			return nil, err
		}
		if err := l.expectPunct(";"); err != nil {
			return nil, err
		}
		txns = append(txns, db.Transaction{Label: fmt.Sprintf("q%d", auto), Updates: []db.Update{u}})
		auto++
	}
	return txns, nil
}

// oracleRawTerm is a pattern position before kinds are resolved against the
// schema.
type oracleRawTerm struct {
	isConst bool
	isStr   bool
	text    string // literal text (string contents or number)
	varName string
	notEq   []oracleRawTerm
	pos     int
}

func (l *oracleLexer) oracleParseRawTerm() (oracleRawTerm, error) {
	t := l.next()
	switch {
	case t.kind == tokString:
		return oracleRawTerm{isConst: true, isStr: true, text: t.text, pos: t.pos}, nil
	case t.kind == tokNumber:
		return oracleRawTerm{isConst: true, text: t.text, pos: t.pos}, nil
	case t.kind == tokIdent:
		return oracleRawTerm{varName: t.text, pos: t.pos}, nil
	case t.kind == tokPunct && t.text == "[":
		// [x != "a", x != "b"]
		out := oracleRawTerm{pos: t.pos}
		for {
			name, err := l.expectIdent()
			if err != nil {
				return out, err
			}
			if out.varName == "" {
				out.varName = name
			} else if out.varName != name {
				return out, fmt.Errorf("parser: mixed variables %s and %s in disequality at offset %d", out.varName, name, t.pos)
			}
			if !l.acceptPunct("!=") && !l.acceptPunct("<>") {
				return out, fmt.Errorf("parser: expected != in disequality at offset %d", l.peek().pos)
			}
			c := l.next()
			switch c.kind {
			case tokString:
				out.notEq = append(out.notEq, oracleRawTerm{isConst: true, isStr: true, text: c.text, pos: c.pos})
			case tokNumber:
				out.notEq = append(out.notEq, oracleRawTerm{isConst: true, text: c.text, pos: c.pos})
			default:
				return out, fmt.Errorf("parser: expected constant after != at offset %d", c.pos)
			}
			if !l.acceptPunct(",") {
				break
			}
		}
		if err := l.expectPunct("]"); err != nil {
			return out, err
		}
		return out, nil
	default:
		return oracleRawTerm{}, fmt.Errorf("parser: expected term at offset %d, got %q", t.pos, t.text)
	}
}

func (rt oracleRawTerm) toValue(kind db.Kind) (db.Value, error) {
	if rt.isStr {
		if kind != db.KindString {
			return db.Value{}, fmt.Errorf("parser: string literal %q where %v expected at offset %d", rt.text, kind, rt.pos)
		}
		return db.S(rt.text), nil
	}
	return db.ParseValue(kind, rt.text)
}

func (rt oracleRawTerm) toTerm(kind db.Kind) (db.Term, error) {
	if rt.isConst {
		v, err := rt.toValue(kind)
		if err != nil {
			return db.Term{}, err
		}
		return db.Const(v), nil
	}
	if len(rt.notEq) == 0 {
		return db.AnyVar(rt.varName), nil
	}
	vals := make([]db.Value, len(rt.notEq))
	for i, ne := range rt.notEq {
		v, err := ne.toValue(kind)
		if err != nil {
			return db.Term{}, err
		}
		vals[i] = v
	}
	return db.VarNotEq(rt.varName, vals...), nil
}

// oracleParseDatalogQuery parses one annotated query in the paper's
// datalog-like notation and returns the update together with its
// annotation label:
//
//	Products+,p("Lego bricks", "Kids", 90):-
//	Products-,p(a, "Fashion", b):-
//	ProductsM,p("Kids mnt bike", a, b -> "Kids mnt bike", "Bicycles", b):-
//
// The modification's u1 and u2 may also be given as 2n comma-separated
// terms without the -> separator, exactly as the paper writes them.
func oracleParseDatalogQuery(s *db.Schema, src string) (db.Update, string, error) {
	l, err := newOracleLexer(src)
	if err != nil {
		return db.Update{}, "", err
	}
	head, err := l.expectIdent()
	if err != nil {
		return db.Update{}, "", err
	}
	var kind db.UpdateKind
	rel := s.Relation(head)
	switch {
	case rel != nil && l.acceptPunct("+"):
		kind = db.OpInsert
	case rel != nil && l.acceptPunct("-"):
		kind = db.OpDelete
	case rel == nil && strings.HasSuffix(head, "M") && s.Relation(strings.TrimSuffix(head, "M")) != nil:
		kind = db.OpModify
		rel = s.Relation(strings.TrimSuffix(head, "M"))
	default:
		return db.Update{}, "", fmt.Errorf("parser: cannot resolve head %q (want Rel+, Rel- or RelM)", head)
	}
	if err := l.expectPunct(","); err != nil {
		return db.Update{}, "", err
	}
	label, err := l.expectIdent()
	if err != nil {
		return db.Update{}, "", err
	}
	if err := l.expectPunct("("); err != nil {
		return db.Update{}, "", err
	}
	var raws []oracleRawTerm
	arrowAt := -1
	for {
		if l.acceptPunct("->") {
			arrowAt = len(raws)
			continue
		}
		rt, err := l.oracleParseRawTerm()
		if err != nil {
			return db.Update{}, "", err
		}
		raws = append(raws, rt)
		if l.acceptPunct(",") {
			continue
		}
		if l.acceptPunct("->") {
			arrowAt = len(raws)
			continue
		}
		break
	}
	if err := l.expectPunct(")"); err != nil {
		return db.Update{}, "", err
	}
	if err := l.expectPunct(":-"); err != nil {
		return db.Update{}, "", err
	}
	if l.peek().kind != tokEOF {
		return db.Update{}, "", fmt.Errorf("parser: trailing input at offset %d", l.peek().pos)
	}

	n := rel.Arity()
	var u db.Update
	switch kind {
	case db.OpInsert:
		if len(raws) != n {
			return db.Update{}, "", fmt.Errorf("parser: insertion into %s needs %d constants, got %d", rel.Name, n, len(raws))
		}
		row := make(db.Tuple, n)
		for i, rt := range raws {
			if !rt.isConst {
				return db.Update{}, "", fmt.Errorf("parser: insertion terms must be constants (position %d)", i)
			}
			v, err := rt.toValue(rel.Attrs[i].Kind)
			if err != nil {
				return db.Update{}, "", err
			}
			row[i] = v
		}
		u = db.Insert(rel.Name, row)
	case db.OpDelete:
		if len(raws) != n {
			return db.Update{}, "", fmt.Errorf("parser: deletion on %s needs %d terms, got %d", rel.Name, n, len(raws))
		}
		sel := make(db.Pattern, n)
		for i, rt := range raws {
			term, err := rt.toTerm(rel.Attrs[i].Kind)
			if err != nil {
				return db.Update{}, "", err
			}
			sel[i] = term
		}
		u = db.Delete(rel.Name, sel)
	case db.OpModify:
		if arrowAt < 0 {
			if len(raws) != 2*n {
				return db.Update{}, "", fmt.Errorf("parser: modification on %s needs %d terms (u1, u2), got %d", rel.Name, 2*n, len(raws))
			}
			arrowAt = n
		}
		if arrowAt != n || len(raws)-arrowAt != n {
			return db.Update{}, "", fmt.Errorf("parser: modification on %s needs %d+%d terms, got %d+%d",
				rel.Name, n, n, arrowAt, len(raws)-arrowAt)
		}
		u1, u2 := raws[:n], raws[n:]
		sel := make(db.Pattern, n)
		set := make([]db.SetClause, n)
		for i := range u1 {
			term, err := u1[i].toTerm(rel.Attrs[i].Kind)
			if err != nil {
				return db.Update{}, "", err
			}
			sel[i] = term
			switch {
			case !u2[i].isConst:
				if u2[i].varName != u1[i].varName || len(u2[i].notEq) > 0 {
					return db.Update{}, "", fmt.Errorf("parser: u2 position %d must repeat u1's variable or be a constant", i)
				}
				set[i] = db.Keep()
			case u1[i].isConst && u1[i].text == u2[i].text && u1[i].isStr == u2[i].isStr:
				set[i] = db.Keep()
			default:
				v, err := u2[i].toValue(rel.Attrs[i].Kind)
				if err != nil {
					return db.Update{}, "", err
				}
				set[i] = db.SetTo(v)
			}
		}
		u = db.Modify(rel.Name, sel, set)
	}
	return u, label, u.Validate(s)
}

// oracleParseDatalogLog parses one annotated query per non-empty line and
// groups consecutive queries sharing an annotation into a transaction
// (the paper uses one annotation per transaction).
func oracleParseDatalogLog(s *db.Schema, src string) ([]db.Transaction, error) {
	var txns []db.Transaction
	for ln, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "%") || strings.HasPrefix(line, "--") {
			continue
		}
		u, label, err := oracleParseDatalogQuery(s, line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		if len(txns) > 0 && txns[len(txns)-1].Label == label {
			txns[len(txns)-1].Updates = append(txns[len(txns)-1].Updates, u)
		} else {
			txns = append(txns, db.Transaction{Label: label, Updates: []db.Update{u}})
		}
	}
	return txns, nil
}
