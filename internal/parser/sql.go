package parser

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"unsafe"

	"hyperprov/internal/db"
)

// logParser is a front end's state for one source text, SQL or datalog.
// It is recycled through parsers, so its scratch and its builder's
// slabs survive from call to call. A Batch borrows what is built in b
// and recycles it on Release; the Parse* entry points leave it to the
// collector, so what such a parse allocates is what its result keeps.
type logParser struct {
	lexer
	s    *db.Schema
	b    db.Builder
	txns []db.Transaction // the log so far; result copies it out
	ups  []db.Update      // the open transaction's statements; closeTxn copies them out
	raws []rawTerm        // the datalog query being read
}

// parsers keeps the parsers of four requests a CPU. A kept parser
// holds its builder's slabs, as large as the largest batch it read
// borrowed: at most 4 × NumCPU of the largest body a server admits.
var parsers = db.FreeList[*logParser]{Max: 4 * runtime.NumCPU(), New: func() *logParser { return new(logParser) }}

func newParser(s *db.Schema) *logParser {
	l := parsers.Get()
	l.s = s
	return l
}

// release returns the parser to parsers holding neither the source nor
// anything parsed from it; recycle says the result was borrowed and its
// holder is done with it, so the slabs stay.
func (l *logParser) release(recycle bool) {
	if recycle {
		l.b.Reset()
	} else {
		l.b = db.Builder{}
	}
	clear(l.txns)
	clear(l.ups)
	clear(l.raws[:cap(l.raws)]) // a short query leaves a longer one's tail behind
	l.txns, l.ups, l.raws = l.txns[:0], l.ups[:0], l.raws[:0]
	l.lexer, l.s = lexer{}, nil
	parsers.Put(l)
}

// Batch is a log parsed for one engine.DB.ApplyBatch, which only
// borrows its transactions (see db.Transaction). Txns lives in the
// recycled parser's slabs and, for datalog variable names, in the source
// bytes: both are the caller's to reuse after Release, not before.
type Batch struct {
	Txns []db.Transaction
	p    *logParser
}

// ParseSQLBatch is ParseSQLLog scanning src in place, into a Batch.
func ParseSQLBatch(s *db.Schema, src []byte) (Batch, error) {
	return parseBatch(s, src, (*logParser).sqlLog)
}

// ParseDatalogBatch is ParseDatalogLog scanning src in place, into a
// Batch.
func ParseDatalogBatch(s *db.Schema, src []byte) (Batch, error) {
	return parseBatch(s, src, (*logParser).datalogLog)
}

func parseBatch(s *db.Schema, src []byte, log func(*logParser, string) ([]db.Transaction, error)) (Batch, error) {
	l := newParser(s)
	txns, err := log(l, unsafe.String(unsafe.SliceData(src), len(src)))
	if err != nil {
		l.release(true)
		return Batch{}, err
	}
	return Batch{Txns: txns, p: l}, nil
}

// Release recycles the transactions of a batch that parsed.
func (b Batch) Release() { b.p.release(true) }

// ParseSQLStatement parses one statement of the hyperplane SQL fragment
// against the schema:
//
//	INSERT INTO Rel VALUES (v1, …, vn)
//	DELETE FROM Rel [WHERE attr op const AND …]
//	UPDATE Rel SET attr = const, … [WHERE attr op const AND …]
//
// with op ∈ {=, <>, !=}. A missing WHERE clause selects every tuple.
func ParseSQLStatement(s *db.Schema, stmt string) (db.Update, error) {
	l := newParser(s)
	defer l.release(false)
	l.init(stmt)
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

func (l *logParser) statement() (db.Update, error) {
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

func (l *logParser) relation() (*db.RelationSchema, error) {
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

func (l *logParser) parseInsert() (db.Update, error) {
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
	row := db.Tuple(l.b.Values(rel.Arity()))
	for i := range row {
		if i > 0 {
			if err := l.expectPunct(","); err != nil {
				return db.Update{}, err
			}
		}
		v, err := l.parseConst(rel.Attrs[i].Kind)
		if err != nil {
			return db.Update{}, err
		}
		row[i] = v
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
func (l *logParser) parseWhere(rel *db.RelationSchema) (db.Pattern, error) {
	p := l.b.Pattern(rel.Arity())
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
			ne := l.b.Values(len(t.NotEq()) + 1)
			ne[copy(ne, t.NotEq())] = v
			p[col] = db.VarNotEq(rel.VarName(col), ne...)
		}
	}
	for i, t := range p {
		if !t.IsConst() && t.VarName() == "" {
			p[i] = db.AnyVar(rel.VarName(i))
		}
	}
	return p, nil
}

func (l *logParser) parseDelete() (db.Update, error) {
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

func (l *logParser) parseUpdate() (db.Update, error) {
	rel, err := l.relation()
	if err != nil {
		return db.Update{}, err
	}
	if !l.acceptKeyword("SET") {
		return db.Update{}, fmt.Errorf("parser: expected SET at offset %d", l.tok.pos)
	}
	set := l.b.Set(rel.Arity())
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
	l := newParser(s)
	defer l.release(false)
	return l.sqlLog(src)
}

// closeTxn moves the open transaction's statements out of the scratch
// list into the log, under a label the engine will keep: callers pass
// one that is not a substring of the source.
func (l *logParser) closeTxn(label string) {
	ups := l.b.Updates(len(l.ups))
	copy(ups, l.ups)
	clear(l.ups)
	l.ups = l.ups[:0]
	l.txns = append(l.txns, db.Transaction{Label: label, Updates: ups})
}

// result copies the log's transactions out at their number.
func (l *logParser) result() []db.Transaction {
	txns := l.b.Transactions(len(l.txns))
	copy(txns, l.txns)
	return txns
}

func (l *logParser) sqlLog(src string) ([]db.Transaction, error) {
	l.init(src)
	if err := l.fail(l.sqlTxns()); err != nil {
		return nil, err
	}
	return l.result(), nil
}

// sqlStatement parses one ';'-terminated statement into the open
// transaction.
func (l *logParser) sqlStatement() error {
	u, err := l.statement()
	if err != nil {
		return err
	}
	l.ups = append(l.ups, u)
	return l.expectPunct(";")
}

func (l *logParser) sqlTxns() error {
	auto := 0
	for l.tok.kind != tokEOF {
		if !l.acceptKeyword("BEGIN") {
			if err := l.sqlStatement(); err != nil {
				return err
			}
			l.closeTxn("q" + strconv.Itoa(auto))
			auto++
			continue
		}
		label, err := l.expectIdent()
		if err != nil {
			return err
		}
		if err := l.expectPunct(";"); err != nil {
			return err
		}
		for !l.acceptKeyword("COMMIT") {
			if l.tok.kind == tokEOF {
				return fmt.Errorf("parser: transaction %s missing COMMIT", label)
			}
			if err := l.sqlStatement(); err != nil {
				return err
			}
		}
		if err := l.expectPunct(";"); err != nil {
			return err
		}
		l.closeTxn(strings.Clone(label))
	}
	return nil
}
