package db

import "fmt"

// Instance is one relation's extent under set semantics: a dense tuple
// slice for fast scans (hyperplane updates scan whole relations) plus a
// key index for O(1) membership; deletion swap-removes from the slice.
type Instance struct {
	rel   *RelationSchema
	list  []Tuple
	index map[string]int // Tuple.Key → position in list
}

// Schema returns the relation schema of the instance.
func (in *Instance) Schema() *RelationSchema { return in.rel }

// Len reports the number of tuples.
func (in *Instance) Len() int { return len(in.list) }

// Contains reports membership of the tuple.
func (in *Instance) Contains(t Tuple) bool {
	_, ok := in.index[t.Key()]
	return ok
}

// Each calls f for every tuple, in insertion order as long as nothing
// was removed (a removal swaps the last tuple into the hole), which is
// what engine.BoolRestrict* document and their callers rely on. f must
// not mutate the instance.
func (in *Instance) Each(f func(t Tuple)) {
	for _, t := range in.list {
		f(t)
	}
}

// Tuples returns the tuples sorted by key (a deterministic order for
// display and tests), each key rendered once: engines seed their row
// order from this.
func (in *Instance) Tuples() []Tuple { return sortByKey(in.list) }

// put inserts or overwrites a tuple.
func (in *Instance) put(key string, t Tuple) {
	if i, ok := in.index[key]; ok {
		in.list[i] = t
		return
	}
	in.index[key] = len(in.list)
	in.list = append(in.list, t)
}

// remove deletes a tuple by key, swap-removing from the slice.
func (in *Instance) remove(key string) {
	i, ok := in.index[key]
	if !ok {
		return
	}
	last := len(in.list) - 1
	if i != last {
		in.list[i] = in.list[last]
		in.index[in.list[i].Key()] = i
	}
	in.list = in.list[:last]
	delete(in.index, key)
}

// Database is a plain, provenance-free in-memory database under set
// semantics. It defines the ground truth that the provenance engines'
// all-true valuation must agree with, and serves as the "No provenance"
// baseline of the paper's experiments.
type Database struct {
	schema    *Schema
	instances map[string]*Instance
}

// NewDatabase returns an empty database over the schema.
func NewDatabase(s *Schema) *Database {
	d := &Database{schema: s, instances: make(map[string]*Instance, len(s.Names()))}
	for _, name := range s.Names() {
		d.instances[name] = &Instance{rel: s.Relation(name), index: make(map[string]int)}
	}
	return d
}

// Schema returns the database schema.
func (d *Database) Schema() *Schema { return d.schema }

// Instance returns the named relation instance, or nil.
func (d *Database) Instance(rel string) *Instance { return d.instances[rel] }

// NumTuples reports the total number of tuples across all relations.
func (d *Database) NumTuples() int {
	n := 0
	for _, in := range d.instances {
		n += len(in.list)
	}
	return n
}

// RowBatch is a run of one relation's rows on their way into an engine.
type RowBatch struct {
	Rel  string
	Rows []Tuple
	// Total, on a relation's first batch, is the number of rows the
	// relation will deliver in all; the loader sizes its tables by it.
	Total int
	// Restart voids what the relation delivered so far (its rows turned
	// out not to be in key order): this batch is its first again.
	Restart bool
}

// RowSource delivers the rows an engine starts from (engine.Load):
// relations in schema order, each one's rows in Key order without
// duplicates — the order the initial annotations t0, t1, … are named in —
// batch by batch; it stops at emit's first error and returns it.
type RowSource func(emit func(RowBatch) error) error

// Rows is the database's RowSource: one batch per relation.
func (d *Database) Rows(emit func(RowBatch) error) error {
	for _, rel := range d.schema.Names() {
		rows := d.instances[rel].Tuples()
		if err := emit(RowBatch{Rel: rel, Rows: rows, Total: len(rows)}); err != nil {
			return err
		}
	}
	return nil
}

// InsertTuple adds a tuple directly (initial loading, not an update
// query).
func (d *Database) InsertTuple(rel string, t Tuple) error {
	in := d.instances[rel]
	if in == nil {
		return fmt.Errorf("db: unknown relation %s", rel)
	}
	if err := t.Conforms(in.rel); err != nil {
		return err
	}
	in.put(t.Key(), t)
	return nil
}

// Apply executes one hyperplane update query with set semantics.
func (d *Database) Apply(u Update) error {
	in := d.instances[u.Rel]
	if in == nil {
		return fmt.Errorf("db: unknown relation %s", u.Rel)
	}
	switch u.Kind {
	case OpInsert:
		in.put(u.Row.Key(), u.Row)
		return nil
	case OpDelete:
		var matched []Tuple
		for _, t := range in.list {
			if u.MatchesTuple(t) {
				matched = append(matched, t)
			}
		}
		for _, t := range matched {
			in.remove(t.Key())
		}
		return nil
	case OpModify:
		var matched []Tuple
		for _, t := range in.list {
			if u.MatchesTuple(t) {
				matched = append(matched, t)
			}
		}
		for _, t := range matched {
			in.remove(t.Key())
		}
		for _, t := range matched {
			nt := u.Target(t)
			in.put(nt.Key(), nt)
		}
		return nil
	default:
		return fmt.Errorf("db: unknown update kind %v", u.Kind)
	}
}

// ApplyTransaction executes every query of the transaction in order.
func (d *Database) ApplyTransaction(t *Transaction) error {
	for i := range t.Updates {
		if err := d.Apply(t.Updates[i]); err != nil {
			return fmt.Errorf("transaction %s, query %d: %w", t.Label, i, err)
		}
	}
	return nil
}

// ApplyAll executes a sequence of transactions.
func (d *Database) ApplyAll(txns []Transaction) error {
	for i := range txns {
		if err := d.ApplyTransaction(&txns[i]); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns an independent copy of the database (tuples are shared;
// they are immutable by convention).
func (d *Database) Clone() *Database {
	c := &Database{schema: d.schema, instances: make(map[string]*Instance, len(d.instances))}
	for name, in := range d.instances {
		list := make([]Tuple, len(in.list))
		copy(list, in.list)
		index := make(map[string]int, len(in.index))
		for k, i := range in.index {
			index[k] = i
		}
		c.instances[name] = &Instance{rel: in.rel, list: list, index: index}
	}
	return c
}

// Equal reports whether two databases over the same schema contain the
// same tuples, each filed under its own key (see Diff).
func (d *Database) Equal(o *Database) bool {
	return len(d.instances) == len(o.instances) && d.Diff(o) == ""
}

// Diff returns a human-readable description of the first few differences
// between two databases, or "" when they are equal. For test failure
// messages. A tuple changed after it was inserted (a lent tuple kept
// without a Clone) no longer matches the key it is filed under, and is
// named as a difference too.
func (d *Database) Diff(o *Database) string {
	out := ""
	count := 0
	add := func(s string) {
		if count < 8 {
			out += s + "\n"
		}
		count++
	}
	for _, name := range d.schema.Names() {
		in, oin := d.instances[name], o.instances[name]
		if oin == nil {
			add(fmt.Sprintf("relation %s missing on right", name))
			continue
		}
		for _, side := range [2]struct {
			a, b  *Instance
			where string
		}{{in, oin, "left"}, {oin, in, "right"}} {
			for i, t := range side.a.list {
				key := t.Key()
				if j, ok := side.a.index[key]; !ok || j != i {
					add(fmt.Sprintf("%s: %v on %s is not filed under its key", name, t, side.where))
				}
				if _, ok := side.b.index[key]; !ok {
					add(fmt.Sprintf("%s: %v only on %s", name, t, side.where))
				}
			}
		}
	}
	if count > 8 {
		out += fmt.Sprintf("... and %d more differences\n", count-8)
	}
	return out
}
