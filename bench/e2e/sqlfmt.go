package main

import (
	"strconv"
	"strings"

	"hyperprov/internal/db"
)

// The load generator renders its own SQL instead of calling
// parser.FormatSQLLog: that formatter prints floats with %g, which
// switches to exponent notation at 1e21 digits of precision — TPC-C's
// w_ytd comes out as 1.00004346e+06 — and the SQL lexer only accepts
// digits and '.', so /v1/ingest answers 400 on the first Payment past
// 1e6 (product bug, recorded in README.md for a later issue).

func appendSQLValue(b []byte, v db.Value) []byte {
	switch v.Kind() {
	case db.KindString:
		b = append(b, '\'')
		b = append(b, strings.ReplaceAll(v.Str(), "'", "''")...)
		return append(b, '\'')
	case db.KindInt:
		return strconv.AppendInt(b, v.Int(), 10)
	default:
		return strconv.AppendFloat(b, v.Float(), 'f', -1, 64)
	}
}

func appendSQLWhere(b []byte, rel *db.RelationSchema, sel db.Pattern) []byte {
	sep := " WHERE "
	for i, term := range sel {
		if term.IsConst() {
			b = append(b, sep...)
			b = append(b, rel.Attrs[i].Name...)
			b = append(b, " = "...)
			b = appendSQLValue(b, term.Value())
			sep = " AND "
			continue
		}
		for _, ne := range term.NotEq() {
			b = append(b, sep...)
			b = append(b, rel.Attrs[i].Name...)
			b = append(b, " <> "...)
			b = appendSQLValue(b, ne)
			sep = " AND "
		}
	}
	return b
}

func appendSQLUpdate(b []byte, s *db.Schema, u db.Update) []byte {
	rel := s.Relation(u.Rel)
	switch u.Kind {
	case db.OpInsert:
		b = append(b, "INSERT INTO "...)
		b = append(b, rel.Name...)
		b = append(b, " VALUES ("...)
		for i, v := range u.Row {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendSQLValue(b, v)
		}
		b = append(b, ')')
	case db.OpDelete:
		b = append(b, "DELETE FROM "...)
		b = append(b, rel.Name...)
		b = appendSQLWhere(b, rel, u.Sel)
	case db.OpModify:
		b = append(b, "UPDATE "...)
		b = append(b, rel.Name...)
		sep := " SET "
		for i, c := range u.Set {
			if !c.Set {
				continue
			}
			b = append(b, sep...)
			b = append(b, rel.Attrs[i].Name...)
			b = append(b, " = "...)
			b = appendSQLValue(b, c.Val)
			sep = ", "
		}
		b = appendSQLWhere(b, rel, u.Sel)
	}
	return b
}

// appendSQLLog renders transactions in the BEGIN/COMMIT log format
// parser.ParseSQLLog accepts.
func appendSQLLog(b []byte, s *db.Schema, txns []db.Transaction) []byte {
	for i := range txns {
		b = append(b, "BEGIN "...)
		b = append(b, txns[i].Label...)
		b = append(b, ";\n"...)
		for _, u := range txns[i].Updates {
			b = appendSQLUpdate(b, s, u)
			b = append(b, ";\n"...)
		}
		b = append(b, "COMMIT;\n"...)
	}
	return b
}
