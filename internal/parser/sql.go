package parser

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"hyperprov/internal/db"
)

// sqlParser is the SQL front end's state for one source text. It is
// pooled, so its scratch survives from call to call and what a parse
// allocates is what its result keeps.
type sqlParser struct {
	lexer
	s   *db.Schema
	ups []db.Update // the open transaction's statements; COMMIT copies them out
}

var sqlParsers = sync.Pool{New: func() any { return new(sqlParser) }}

func newSQLParser(s *db.Schema, src string) *sqlParser {
	l := sqlParsers.Get().(*sqlParser)
	l.s = s
	l.init(src)
	return l
}

// release returns the parser to the pool holding neither the source nor
// anything parsed from it.
func (l *sqlParser) release() {
	clear(l.ups)
	l.ups = l.ups[:0]
	l.lexer, l.s = lexer{}, nil
	sqlParsers.Put(l)
}

// ParseSQLStatement parses one statement of the hyperplane SQL fragment
// against the schema:
//
//	INSERT INTO Rel VALUES (v1, …, vn)
//	DELETE FROM Rel [WHERE attr op const AND …]
//	UPDATE Rel SET attr = const, … [WHERE attr op const AND …]
//
// with op ∈ {=, <>, !=}. A missing WHERE clause selects every tuple.
func ParseSQLStatement(s *db.Schema, stmt string) (db.Update, error) {
	l := newSQLParser(s, stmt)
	defer l.release()
	u, err := l.statement()
	if err == nil {
		l.acceptPunct(";")
		if l.tok.kind != tokEOF {
			err = fmt.Errorf("parser: trailing input at offset %d", l.tok.pos)
		}
	}
	if err = l.fail(err); err != nil {
		return db.Update{}, err
	}
	return u, nil
}

func (l *sqlParser) statement() (db.Update, error) {
	switch {
	case l.acceptKeyword("INSERT"):
		return l.parseInsert()
	case l.acceptKeyword("DELETE"):
		return l.parseDelete()
	case l.acceptKeyword("UPDATE"):
		return l.parseUpdate()
	default:
		return db.Update{}, fmt.Errorf("parser: expected INSERT, DELETE or UPDATE at offset %d, got %q", l.tok.pos, l.tok.text)
	}
}

func (l *sqlParser) relation() (*db.RelationSchema, error) {
	name, err := l.expectIdent()
	if err != nil {
		return nil, err
	}
	rel := l.s.Relation(name)
	if rel == nil {
		return nil, fmt.Errorf("parser: unknown relation %s", name)
	}
	return rel, nil
}

func (l *lexer) parseConst(kind db.Kind) (db.Value, error) {
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

func (l *sqlParser) parseInsert() (db.Update, error) {
	if !l.acceptKeyword("INTO") {
		return db.Update{}, fmt.Errorf("parser: expected INTO at offset %d", l.tok.pos)
	}
	rel, err := l.relation()
	if err != nil {
		return db.Update{}, err
	}
	if !l.acceptKeyword("VALUES") {
		return db.Update{}, fmt.Errorf("parser: expected VALUES at offset %d", l.tok.pos)
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
		v, err := l.parseConst(rel.Attrs[i].Kind)
		if err != nil {
			return db.Update{}, err
		}
		row = append(row, v)
	}
	if err := l.expectPunct(")"); err != nil {
		return db.Update{}, err
	}
	u := db.Insert(rel.Name, row)
	return u, u.Validate(l.s)
}

// attrCol parses an attribute name of rel and returns its position.
func (l *lexer) attrCol(rel *db.RelationSchema) (int, error) {
	attr, err := l.expectIdent()
	if err != nil {
		return 0, err
	}
	col := rel.AttrIndex(attr)
	if col < 0 {
		return 0, fmt.Errorf("parser: relation %s has no attribute %s", rel.Name, attr)
	}
	return col, nil
}

// parseWhere parses the conjunction of hyperplane predicates into a
// pattern over the relation, filled in as the predicates arrive: an
// equality makes its position a constant term (and wins over any
// disequality on it), disequalities accumulate on a variable term.
func (l *lexer) parseWhere(rel *db.RelationSchema) (db.Pattern, error) {
	p := make(db.Pattern, rel.Arity())
	for more := l.acceptKeyword("WHERE"); more; more = l.acceptKeyword("AND") {
		col, err := l.attrCol(rel)
		if err != nil {
			return nil, err
		}
		var neq bool
		switch {
		case l.acceptPunct("="):
		case l.acceptPunct("<>"), l.acceptPunct("!="):
			neq = true
		default:
			return nil, fmt.Errorf("parser: expected = or <> at offset %d (hyperplane predicates compare an attribute to a constant)", l.tok.pos)
		}
		v, err := l.parseConst(rel.Attrs[col].Kind)
		if err != nil {
			return nil, err
		}
		switch t := p[col]; {
		case !neq && t.IsConst() && t.Value() != v:
			return nil, fmt.Errorf("parser: contradictory equalities on %s", rel.Attrs[col].Name)
		case !neq:
			p[col] = db.Const(v)
		case !t.IsConst():
			p[col] = db.VarNotEq(rel.VarName(col), append(t.NotEq(), v)...)
		}
	}
	for i, t := range p {
		if !t.IsConst() && t.VarName() == "" {
			p[i] = db.AnyVar(rel.VarName(i))
		}
	}
	return p, nil
}

func (l *sqlParser) parseDelete() (db.Update, error) {
	if !l.acceptKeyword("FROM") {
		return db.Update{}, fmt.Errorf("parser: expected FROM at offset %d", l.tok.pos)
	}
	rel, err := l.relation()
	if err != nil {
		return db.Update{}, err
	}
	sel, err := l.parseWhere(rel)
	if err != nil {
		return db.Update{}, err
	}
	u := db.Delete(rel.Name, sel)
	return u, u.Validate(l.s)
}

func (l *sqlParser) parseUpdate() (db.Update, error) {
	rel, err := l.relation()
	if err != nil {
		return db.Update{}, err
	}
	if !l.acceptKeyword("SET") {
		return db.Update{}, fmt.Errorf("parser: expected SET at offset %d", l.tok.pos)
	}
	set := make([]db.SetClause, rel.Arity())
	for {
		col, err := l.attrCol(rel)
		if err != nil {
			return db.Update{}, err
		}
		if err := l.expectPunct("="); err != nil {
			return db.Update{}, err
		}
		v, err := l.parseConst(rel.Attrs[col].Kind)
		if err != nil {
			return db.Update{}, err
		}
		set[col] = db.SetTo(v)
		if !l.acceptPunct(",") {
			break
		}
	}
	sel, err := l.parseWhere(rel)
	if err != nil {
		return db.Update{}, err
	}
	u := db.Modify(rel.Name, sel, set)
	return u, u.Validate(l.s)
}

// ParseSQLLog parses a transaction log: statements terminated by ';',
// optionally grouped as
//
//	BEGIN label;
//	  …statements…
//	COMMIT;
//
// Statements outside BEGIN/COMMIT become single-query transactions
// labeled q0, q1, …. SQL comments (--) are ignored.
func ParseSQLLog(s *db.Schema, src string) ([]db.Transaction, error) {
	l := newSQLParser(s, src)
	defer l.release()
	txns, err := l.log()
	if err = l.fail(err); err != nil {
		return nil, err
	}
	return txns, nil
}

func (l *sqlParser) log() ([]db.Transaction, error) {
	var txns []db.Transaction
	auto := 0
	for l.tok.kind != tokEOF {
		if l.acceptKeyword("BEGIN") {
			label, err := l.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := l.expectPunct(";"); err != nil {
				return nil, err
			}
			for !l.acceptKeyword("COMMIT") {
				if l.tok.kind == tokEOF {
					return nil, fmt.Errorf("parser: transaction %s missing COMMIT", label)
				}
				u, err := l.statement()
				if err != nil {
					return nil, err
				}
				if err := l.expectPunct(";"); err != nil {
					return nil, err
				}
				l.ups = append(l.ups, u)
			}
			if err := l.expectPunct(";"); err != nil {
				return nil, err
			}
			// The label outlives src inside core.QueryAnnot nodes.
			txns = append(txns, db.Transaction{Label: strings.Clone(label), Updates: append([]db.Update(nil), l.ups...)})
			clear(l.ups)
			l.ups = l.ups[:0]
			continue
		}
		u, err := l.statement()
		if err != nil {
			return nil, err
		}
		if err := l.expectPunct(";"); err != nil {
			return nil, err
		}
		txns = append(txns, db.Transaction{Label: "q" + strconv.Itoa(auto), Updates: []db.Update{u}})
		auto++
	}
	return txns, nil
}
