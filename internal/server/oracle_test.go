package server

import (
	"hyperprov/internal/db"
)

// The materializing renderer the what-if read path replaced, kept as
// the test oracle: a db.Database boxed into [][]any and rendered by
// encoding/json. The differential suite requires serveLive's bodies to
// equal writeJSON(dbJSON(...)) byte for byte.

// valueJSON renders a db.Value as its natural JSON type.
func valueJSON(v db.Value) any {
	switch v.Kind() {
	case db.KindString:
		return v.Str()
	case db.KindInt:
		return v.Int()
	case db.KindFloat:
		return v.Float()
	default:
		return v.String()
	}
}

func tupleJSON(t db.Tuple) []any {
	out := make([]any, len(t))
	for i, v := range t {
		out[i] = valueJSON(v)
	}
	return out
}

// relationJSON is one relation of a rendered database.
type relationJSON struct {
	Attrs  []string `json:"attrs"`
	Tuples [][]any  `json:"tuples"`
}

type databaseJSON struct {
	Relations map[string]relationJSON `json:"relations"`
	NumTuples int                     `json:"numTuples"`
}

// dbJSON renders a materialized database. Tuple order within a relation
// is the engine's deterministic streaming order.
func dbJSON(d *db.Database) databaseJSON {
	out := databaseJSON{Relations: make(map[string]relationJSON), NumTuples: d.NumTuples()}
	for _, name := range d.Schema().Names() {
		rel := d.Schema().Relation(name)
		attrs := make([]string, len(rel.Attrs))
		for i, a := range rel.Attrs {
			attrs[i] = a.Name
		}
		rj := relationJSON{Attrs: attrs, Tuples: [][]any{}}
		d.Instance(name).Each(func(t db.Tuple) {
			rj.Tuples = append(rj.Tuples, tupleJSON(t))
		})
		out.Relations[name] = rj
	}
	return out
}
