package parser

import (
	"fmt"
	"strings"

	"hyperprov/internal/db"
)

// rawTerm is a pattern position before kinds are resolved against the
// schema.
type rawTerm struct {
	isConst bool
	isStr   bool
	text    string // literal text (string contents or number)
	varName string
	notEq   []rawTerm
	pos     int
}

func (l *lexer) parseRawTerm() (rawTerm, error) {
	t := l.next()
	switch {
	case t.kind == tokString || t.kind == tokNumber:
		return rawTerm{isConst: true, isStr: t.kind == tokString, text: t.text, pos: t.pos}, nil
	case t.kind == tokIdent:
		return rawTerm{varName: t.text, pos: t.pos}, nil
	case t.kind == tokPunct && t.text == "[":
		// [x != "a", x != "b"]
		out := rawTerm{pos: t.pos}
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
				return out, fmt.Errorf("parser: expected != in disequality at offset %d", l.tok.pos)
			}
			c := l.next()
			if c.kind != tokString && c.kind != tokNumber {
				return out, fmt.Errorf("parser: expected constant after != at offset %d", c.pos)
			}
			out.notEq = append(out.notEq, rawTerm{isConst: true, isStr: c.kind == tokString, text: c.text, pos: c.pos})
			if !l.acceptPunct(",") {
				break
			}
		}
		if err := l.expectPunct("]"); err != nil {
			return out, err
		}
		return out, nil
	default:
		return rawTerm{}, fmt.Errorf("parser: expected term at offset %d, got %q", t.pos, t.text)
	}
}

func (rt rawTerm) toValue(kind db.Kind) (db.Value, error) {
	if rt.isStr {
		if kind != db.KindString {
			return db.Value{}, fmt.Errorf("parser: string literal %q where %v expected at offset %d", rt.text, kind, rt.pos)
		}
		return db.S(rt.text), nil
	}
	return db.ParseValue(kind, rt.text)
}

func (rt rawTerm) toTerm(b *db.Builder, kind db.Kind) (db.Term, error) {
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
	vals := b.Values(len(rt.notEq))
	for i, ne := range rt.notEq {
		v, err := ne.toValue(kind)
		if err != nil {
			return db.Term{}, err
		}
		vals[i] = v
	}
	return db.VarNotEq(rt.varName, vals...), nil
}

// ParseDatalogQuery parses one annotated query in the paper's
// datalog-like notation and returns the update together with its
// annotation label:
//
//	Products+,p("Lego bricks", "Kids", 90):-
//	Products-,p(a, "Fashion", b):-
//	ProductsM,p("Kids mnt bike", a, b -> "Kids mnt bike", "Bicycles", b):-
//
// The modification's u1 and u2 may also be given as 2n comma-separated
// terms without the -> separator, exactly as the paper writes them.
func ParseDatalogQuery(s *db.Schema, src string) (db.Update, string, error) {
	l := newParser(s)
	defer l.release(false)
	u, label, err := l.datalogQuery(src)
	if err != nil {
		return db.Update{}, "", err
	}
	// The label outlives the source inside core.QueryAnnot nodes.
	return u, strings.Clone(label), nil
}

// datalogQuery parses src as one query; the label it returns is a
// substring of src.
func (l *logParser) datalogQuery(src string) (db.Update, string, error) {
	l.init(src)
	u, label, err := l.query()
	if err = l.fail(err); err != nil {
		return db.Update{}, "", err
	}
	return u, label, nil
}

func (l *logParser) query() (db.Update, string, error) {
	head, err := l.expectIdent()
	if err != nil {
		return db.Update{}, "", err
	}
	var kind db.UpdateKind
	rel := l.s.Relation(head)
	switch {
	case rel != nil && l.acceptPunct("+"):
		kind = db.OpInsert
	case rel != nil && l.acceptPunct("-"):
		kind = db.OpDelete
	case rel == nil && strings.HasSuffix(head, "M") && l.s.Relation(strings.TrimSuffix(head, "M")) != nil:
		kind = db.OpModify
		rel = l.s.Relation(strings.TrimSuffix(head, "M"))
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
	l.raws = l.raws[:0]
	arrowAt := -1
	for {
		if l.acceptPunct("->") {
			arrowAt = len(l.raws)
			continue
		}
		rt, err := l.parseRawTerm()
		if err != nil {
			return db.Update{}, "", err
		}
		l.raws = append(l.raws, rt)
		if l.acceptPunct(",") {
			continue
		}
		if l.acceptPunct("->") {
			arrowAt = len(l.raws)
			continue
		}
		break
	}
	raws := l.raws
	if err := l.expectPunct(")"); err != nil {
		return db.Update{}, "", err
	}
	if err := l.expectPunct(":-"); err != nil {
		return db.Update{}, "", err
	}
	if l.tok.kind != tokEOF {
		return db.Update{}, "", fmt.Errorf("parser: trailing input at offset %d", l.tok.pos)
	}

	n := rel.Arity()
	var u db.Update
	switch kind {
	case db.OpInsert:
		if len(raws) != n {
			return db.Update{}, "", fmt.Errorf("parser: insertion into %s needs %d constants, got %d", rel.Name, n, len(raws))
		}
		row := db.Tuple(l.b.Values(n))
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
		sel := l.b.Pattern(n)
		for i, rt := range raws {
			term, err := rt.toTerm(&l.b, rel.Attrs[i].Kind)
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
		sel := l.b.Pattern(n)
		set := l.b.Set(n)
		for i := range u1 {
			term, err := u1[i].toTerm(&l.b, rel.Attrs[i].Kind)
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
	return u, label, u.Validate(l.s)
}

// ParseDatalogLog parses one annotated query per non-empty line and
// groups consecutive queries sharing an annotation into a transaction
// (the paper uses one annotation per transaction).
func ParseDatalogLog(s *db.Schema, src string) ([]db.Transaction, error) {
	l := newParser(s)
	defer l.release(false)
	return l.datalogLog(src)
}

func (l *logParser) datalogLog(src string) ([]db.Transaction, error) {
	open := "" // the open transaction's label, a substring of src
	for ln := 1; src != ""; ln++ {
		var line string
		line, src, _ = strings.Cut(src, "\n")
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "%") || strings.HasPrefix(line, "--") {
			continue
		}
		u, label, err := l.datalogQuery(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln, err)
		}
		if label != open && len(l.ups) > 0 {
			l.closeTxn(strings.Clone(open))
		}
		open = label
		l.ups = append(l.ups, u)
	}
	if len(l.ups) > 0 {
		l.closeTxn(strings.Clone(open))
	}
	return l.result(), nil
}
