package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"unsafe"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/provstore"
)

// Record types. A WAL record is one logical mutation of the store;
// transactions dominate, the rest make every engine.DB write method
// durable.
//
// A transaction is logged in one of two forms. One that passes
// db.Transaction.Validate against the store's schema — every one of a
// chunk but a failing last — is schema-relative (recSchemaTxn): a
// relation is its position in the schema META records, a value is
// written in its attribute's kind with no kind byte, and a pattern is
// two bitmaps, of its constants and of its free positions the SQL front
// end would have named (rel.VarName(i), no disequality), followed by
// the constants and, for the other free positions only, a name and
// disequalities. A failing one keeps the self-describing form
// (recTxn), which also every older log holds: it names relations and
// variables and tags every value with its kind, so it decodes without
// a schema and whatever it says.
const (
	recTxn        byte = 1 // one db.Transaction, self-describing, logged before it is applied
	recRestore    byte = 2 // one RestoreRow call (tuple + annotation)
	recMinimize   byte = 3 // a completed MinimizeAll pass (no payload)
	recBuildIndex byte = 4 // a completed BuildIndex (rel, attr)
	recDropIndex  byte = 5 // a completed DropIndex (rel, attr)
	recSchemaTxn  byte = 6 // one db.Transaction that validates, schema-relative
)

// Decode limits: the WAL is written by this process, but recovery must
// survive hostile or bit-rotted files without multi-GB preallocations,
// so every count read from the wire is bounded before use.
const (
	maxWireString = 1 << 24
	maxWireArity  = 1 << 16
	maxWireCount  = 1 << 20
)

// Record is one decoded WAL entry.
type Record struct {
	Type byte
	// Txn is set for recTxn and recSchemaTxn.
	Txn *db.Transaction
	// Rel/Attr are set for recBuildIndex and recDropIndex; Rel, Tuple
	// and Ann for recRestore.
	Rel   string
	Attr  string
	Tuple db.Tuple
	Ann   *core.Expr
}

// --- encoding -----------------------------------------------------------

type recEncoder struct {
	buf bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

func (e *recEncoder) byte(b byte) { e.buf.WriteByte(b) }

func (e *recEncoder) uvarint(v uint64) {
	n := binary.PutUvarint(e.tmp[:], v)
	e.buf.Write(e.tmp[:n])
}

func (e *recEncoder) varint(v int64) {
	n := binary.PutVarint(e.tmp[:], v)
	e.buf.Write(e.tmp[:n])
}

func (e *recEncoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf.WriteString(s)
}

func (e *recEncoder) value(v db.Value) {
	e.byte(byte(v.Kind()))
	switch v.Kind() {
	case db.KindString:
		e.str(v.Str())
	case db.KindInt:
		e.varint(v.Int())
	case db.KindFloat:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.Float()))
		e.buf.Write(b[:])
	}
}

func (e *recEncoder) tuple(t db.Tuple) {
	e.uvarint(uint64(len(t)))
	for _, v := range t {
		e.value(v)
	}
}

func (e *recEncoder) term(t db.Term) {
	if t.IsConst() {
		e.byte(1)
		e.value(t.Value())
		return
	}
	e.byte(0)
	e.str(t.VarName())
	ne := t.NotEq()
	e.uvarint(uint64(len(ne)))
	for _, v := range ne {
		e.value(v)
	}
}

func (e *recEncoder) pattern(p db.Pattern) {
	e.uvarint(uint64(len(p)))
	for _, t := range p {
		e.term(t)
	}
}

func (e *recEncoder) update(u *db.Update) {
	e.byte(byte(u.Kind))
	e.str(u.Rel)
	switch u.Kind {
	case db.OpInsert:
		e.tuple(u.Row)
	case db.OpDelete:
		e.pattern(u.Sel)
	case db.OpModify:
		e.pattern(u.Sel)
		e.uvarint(uint64(len(u.Set)))
		for _, c := range u.Set {
			if c.Set {
				e.byte(1)
				e.value(c.Val)
			} else {
				e.byte(0)
			}
		}
	}
	e.conds(u.Conds)
}

// txn appends the self-describing record payload for one transaction.
func (e *recEncoder) txn(t *db.Transaction) {
	e.byte(recTxn)
	e.str(t.Label)
	e.uvarint(uint64(len(t.Updates)))
	for i := range t.Updates {
		e.update(&t.Updates[i])
	}
}

// txnIn appends the schema-relative record payload for a transaction
// that passes Validate against s.
func (e *recEncoder) txnIn(s *db.Schema, t *db.Transaction) {
	e.byte(recSchemaTxn)
	e.str(t.Label)
	e.uvarint(uint64(len(t.Updates)))
	for i := range t.Updates {
		u := &t.Updates[i]
		pos := s.Position(u.Rel)
		rel := s.At(pos)
		e.byte(byte(u.Kind))
		e.uvarint(uint64(pos))
		switch u.Kind {
		case db.OpInsert:
			for _, v := range u.Row {
				e.valueIn(v)
			}
		case db.OpDelete:
			e.patternIn(rel, u.Sel)
		case db.OpModify:
			e.patternIn(rel, u.Sel)
			e.bits(len(u.Set), func(i int) bool { return u.Set[i].Set })
			for _, c := range u.Set {
				if c.Set {
					e.valueIn(c.Val)
				}
			}
		}
		e.conds(u.Conds)
	}
}

// valueIn appends v without its kind, which the schema has: a string's
// length and bytes, an int's varint, a float in provstore's form.
func (e *recEncoder) valueIn(v db.Value) {
	switch v.Kind() {
	case db.KindString:
		e.str(v.Str())
	case db.KindInt:
		e.varint(v.Int())
	case db.KindFloat:
		e.buf.Write(provstore.AppendFloat(e.tmp[:0], v.Float()))
	}
}

// bits appends a bitmap of n positions, a byte per eight, set where on.
func (e *recEncoder) bits(n int, on func(i int) bool) {
	for i := 0; i < n; i += 8 {
		var b byte
		for j := i; j < min(i+8, n); j++ {
			if on(j) {
				b |= 1 << (j - i)
			}
		}
		e.byte(b)
	}
}

// plainVar reports whether term i of a pattern over rel is a free
// position as the SQL front end writes it: rel.VarName(i), unrestricted.
func plainVar(rel *db.RelationSchema, t db.Term, i int) bool {
	return !t.IsConst() && len(t.NotEq()) == 0 && t.VarName() == rel.VarName(i)
}

func (e *recEncoder) patternIn(rel *db.RelationSchema, p db.Pattern) {
	e.bits(len(p), func(i int) bool { return p[i].IsConst() })
	e.bits(len(p), func(i int) bool { return plainVar(rel, p[i], i) })
	for i, t := range p {
		switch {
		case t.IsConst():
			e.valueIn(t.Value())
		case !plainVar(rel, t, i):
			e.str(t.VarName())
			e.uvarint(uint64(len(t.NotEq())))
			for _, v := range t.NotEq() {
				e.valueIn(v)
			}
		}
	}
}

func (e *recEncoder) conds(conds []db.AttrCond) {
	e.uvarint(uint64(len(conds)))
	for _, c := range conds {
		e.varint(int64(c.Left))
		e.varint(int64(c.Right))
		if c.Neq {
			e.byte(1)
		} else {
			e.byte(0)
		}
	}
}

// encodeRestore renders the record payload for one RestoreRow call. The
// annotation uses the provstore expression codec, so record bytes are
// canonical for structurally equal annotations.
func encodeRestore(rel string, t db.Tuple, ann *core.Expr) ([]byte, error) {
	var e recEncoder
	e.byte(recRestore)
	e.str(rel)
	e.tuple(t)
	if err := provstore.WriteExpr(&e.buf, ann); err != nil {
		return nil, err
	}
	return e.buf.Bytes(), nil
}

func encodeMinimize() []byte { return []byte{recMinimize} }

func encodeIndexOp(typ byte, rel, attr string) []byte {
	var e recEncoder
	e.byte(typ)
	e.str(rel)
	e.str(attr)
	return e.buf.Bytes()
}

// --- decoding -----------------------------------------------------------

// recDecoder reads a payload in place: buf is what is left of it, err
// the first failure, after which everything decodes as zero. A
// transaction record needs b, which the transaction is built in (one
// builder per replay loop, reset per record: the apply only borrows
// it); with a schema, relation and SQL variable names resolve to the
// schema's own strings instead of a copy each.
type recDecoder struct {
	buf    []byte
	err    error
	b      *db.Builder
	schema *db.Schema
}

func (d *recDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.buf = nil
}

// take consumes n bytes; past the end it fails and returns zeros.
func (d *recDecoder) take(n int) []byte {
	if n > len(d.buf) {
		d.fail("wal: record ends early")
		return make([]byte, n)
	}
	p := d.buf[:n]
	d.buf = d.buf[n:]
	return p
}

func (d *recDecoder) byte() byte { return d.take(1)[0] }

func (d *recDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("wal: record ends early")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *recDecoder) varint() int64 {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail("wal: record ends early")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// view returns the next string as a view of the payload, for callers
// that look it up or intern it (db.S clones on first sight).
func (d *recDecoder) view() string {
	n := d.uvarint()
	if n > maxWireString || n > uint64(len(d.buf)) {
		d.fail("wal: string length %d exceeds record", n)
		return ""
	}
	p := d.take(int(n))
	return unsafe.String(unsafe.SliceData(p), len(p))
}

func (d *recDecoder) str() string { return strings.Clone(d.view()) }

func (d *recDecoder) value() db.Value {
	switch kind := d.byte(); db.Kind(kind) {
	case db.KindString:
		return db.S(d.view())
	case db.KindInt:
		return db.I(d.varint())
	case db.KindFloat:
		return db.F(math.Float64frombits(binary.LittleEndian.Uint64(d.take(8))))
	default:
		d.fail("wal: unknown value kind %d", kind)
		return db.Value{}
	}
}

// count reads the number of elements that follow. An element takes at
// least a byte, so a count beyond what is left of the record is as
// implausible as one beyond the limit: nothing is ever allocated for
// more elements than the record has bytes.
func (d *recDecoder) count(limit uint64, what string) int {
	n := d.uvarint()
	if n > limit || n > uint64(len(d.buf)) {
		d.fail("wal: implausible %s count %d", what, n)
		return 0
	}
	return int(n)
}

func (d *recDecoder) tuple() db.Tuple {
	t := db.Tuple(d.b.Values(d.count(maxWireArity, "tuple arity")))
	for i := range t {
		t[i] = d.value()
	}
	return t
}

// term decodes position i of a pattern over rel (nil without a schema,
// or when the schema lacks the relation the record names).
func (d *recDecoder) term(rel *db.RelationSchema, i int) db.Term {
	if d.byte() == 1 {
		return db.Const(d.value())
	}
	name := d.varName(rel, i)
	ne := d.b.Values(d.count(maxWireCount, "disequality"))
	for j := range ne {
		ne[j] = d.value()
	}
	return db.VarNotEq(name, ne...)
}

// varName reads the name of the variable at position i of a pattern
// over rel: the schema's own string where the SQL front end would name
// it so, a copy of another.
func (d *recDecoder) varName(rel *db.RelationSchema, i int) string {
	if name := d.view(); rel == nil || i >= rel.Arity() || name != rel.VarName(i) {
		return strings.Clone(name)
	}
	return rel.VarName(i)
}

func (d *recDecoder) pattern(rel *db.RelationSchema) db.Pattern {
	p := d.b.Pattern(d.count(maxWireArity, "pattern arity"))
	for i := range p {
		p[i] = d.term(rel, i)
	}
	return p
}

func (d *recDecoder) update(u *db.Update) {
	kind, name := d.byte(), d.view()
	var rel *db.RelationSchema
	if d.schema != nil {
		rel = d.schema.Relation(name)
	}
	if rel != nil {
		name = rel.Name
	} else {
		name = strings.Clone(name)
	}
	switch u.Kind, u.Rel = db.UpdateKind(kind), name; u.Kind {
	case db.OpInsert:
		u.Row = d.tuple()
	case db.OpDelete:
		u.Sel = d.pattern(rel)
	case db.OpModify:
		u.Sel = d.pattern(rel)
		u.Set = d.b.Set(d.count(maxWireArity, "set clause"))
		for i := range u.Set {
			if d.byte() == 1 {
				u.Set[i] = db.SetTo(d.value())
			}
		}
	default:
		// Logged without a body (recEncoder.update) and refused by the
		// engine then; replaying it refuses it again.
	}
	d.conds(u)
}

func (d *recDecoder) conds(u *db.Update) {
	for n := d.count(maxWireCount, "condition"); n > 0; n-- {
		u.Conds = append(u.Conds, db.AttrCond{Left: int(d.varint()), Right: int(d.varint()), Neq: d.byte() == 1})
	}
}

// valueIn reads a value of kind k written by recEncoder.valueIn.
func (d *recDecoder) valueIn(k db.Kind) db.Value {
	switch k {
	case db.KindString:
		return db.S(d.view())
	case db.KindInt:
		return db.I(d.varint())
	case db.KindFloat:
		f, raw, err := provstore.FloatHeader(d.uvarint())
		if err != nil {
			d.fail("wal: %v", err)
		} else if raw {
			f = math.Float64frombits(binary.LittleEndian.Uint64(d.take(8)))
		}
		return db.F(f)
	}
	d.fail("wal: unknown value kind %d", k)
	return db.Value{}
}

// bits reads a bitmap of n positions; bit tests one.
func (d *recDecoder) bits(n int) []byte { return d.take((n + 7) / 8) }

func bit(m []byte, i int) bool { return m[i/8]>>(i%8)&1 == 1 }

// valuesIn reads n values of rel's kinds from position 0 on — an
// inserted row — refusing more than there are bytes left, as count does.
func (d *recDecoder) valuesIn(rel *db.RelationSchema) db.Tuple {
	if rel.Arity() > len(d.buf) {
		d.fail("wal: record ends early")
		return nil
	}
	t := db.Tuple(d.b.Values(rel.Arity()))
	for i := range t {
		t[i] = d.valueIn(rel.Attrs[i].Kind)
	}
	return t
}

func (d *recDecoder) patternIn(rel *db.RelationSchema) db.Pattern {
	n := rel.Arity()
	consts, plain := d.bits(n), d.bits(n)
	if d.err != nil {
		return nil
	}
	p := d.b.Pattern(n)
	for i := range p {
		kind := rel.Attrs[i].Kind
		switch {
		case bit(consts, i):
			p[i] = db.Const(d.valueIn(kind))
		case bit(plain, i):
			p[i] = db.AnyVar(rel.VarName(i))
		default:
			name := d.varName(rel, i)
			ne := d.b.Values(d.count(maxWireCount, "disequality"))
			for j := range ne {
				ne[j] = d.valueIn(kind)
			}
			p[i] = db.VarNotEq(name, ne...)
		}
	}
	return p
}

// updateIn decodes an update of a schema-relative record.
func (d *recDecoder) updateIn(u *db.Update) {
	kind, pos := db.UpdateKind(d.byte()), d.uvarint()
	rel := d.schema.At(int(min(pos, maxWireCount)))
	if rel == nil {
		d.fail("wal: relation %d is not in the schema", pos)
		return
	}
	u.Kind, u.Rel = kind, rel.Name
	switch kind {
	case db.OpInsert:
		u.Row = d.valuesIn(rel)
	case db.OpDelete:
		u.Sel = d.patternIn(rel)
	case db.OpModify:
		u.Sel = d.patternIn(rel)
		set := d.bits(rel.Arity())
		if d.err != nil {
			return
		}
		u.Set = d.b.Set(rel.Arity())
		for i := range u.Set {
			if bit(set, i) {
				u.Set[i] = db.SetTo(d.valueIn(rel.Attrs[i].Kind))
			}
		}
	default:
		d.fail("wal: unknown update kind %d", kind)
		return
	}
	d.conds(u)
}

// record parses one record payload (the bytes inside a frame). Txn is
// valid until the builder's next Reset.
func (d *recDecoder) record() (Record, error) {
	if len(d.buf) == 0 {
		return Record{}, fmt.Errorf("wal: empty record")
	}
	rec := Record{Type: d.byte()}
	switch rec.Type {
	case recTxn, recSchemaTxn:
		if rec.Type == recSchemaTxn && d.schema == nil {
			return rec, fmt.Errorf("wal: a schema-relative record needs the store's schema")
		}
		rec.Txn = &d.b.Transactions(1)[0]
		rec.Txn.Label = d.str() // the engine keeps it
		rec.Txn.Updates = d.b.Updates(d.count(maxWireCount, "update"))
		for i := 0; i < len(rec.Txn.Updates) && d.err == nil; i++ {
			if rec.Type == recSchemaTxn {
				d.updateIn(&rec.Txn.Updates[i])
			} else {
				d.update(&rec.Txn.Updates[i])
			}
		}
	case recRestore:
		rec.Rel, rec.Tuple = d.str(), d.tuple()
		if d.err == nil {
			rec.Ann, d.err = provstore.ReadExpr(bytes.NewReader(d.buf))
		}
	case recMinimize:
		// no payload
	case recBuildIndex, recDropIndex:
		rec.Rel, rec.Attr = d.str(), d.str()
	default:
		d.fail("wal: unknown record type %d", rec.Type)
	}
	return rec, d.err
}
