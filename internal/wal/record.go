package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/provstore"
)

// Record types. A WAL record is one logical mutation of the store;
// transactions dominate, the rest make every engine.DB write method
// durable.
const (
	recTxn        byte = 1 // one db.Transaction, logged before it is applied
	recRestore    byte = 2 // one RestoreRow call (tuple + annotation)
	recMinimize   byte = 3 // a completed MinimizeAll pass (no payload)
	recBuildIndex byte = 4 // a completed BuildIndex (rel, attr)
	recDropIndex  byte = 5 // a completed DropIndex (rel, attr)
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
	// Txn is set for recTxn.
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
	e.uvarint(uint64(len(u.Conds)))
	for _, c := range u.Conds {
		e.varint(int64(c.Left))
		e.varint(int64(c.Right))
		if c.Neq {
			e.byte(1)
		} else {
			e.byte(0)
		}
	}
}

// txn appends the canonical record payload for one transaction.
func (e *recEncoder) txn(t *db.Transaction) {
	e.byte(recTxn)
	e.str(t.Label)
	e.uvarint(uint64(len(t.Updates)))
	for i := range t.Updates {
		e.update(&t.Updates[i])
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

type recDecoder struct {
	r *bytes.Reader
}

func (d *recDecoder) byte() (byte, error) { return d.r.ReadByte() }

func (d *recDecoder) uvarint() (uint64, error) { return binary.ReadUvarint(d.r) }

func (d *recDecoder) varint() (int64, error) { return binary.ReadVarint(d.r) }

func (d *recDecoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxWireString || n > uint64(d.r.Len()) {
		return "", fmt.Errorf("wal: string length %d exceeds record", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func (d *recDecoder) value() (db.Value, error) {
	kind, err := d.byte()
	if err != nil {
		return db.Value{}, err
	}
	switch db.Kind(kind) {
	case db.KindString:
		s, err := d.str()
		if err != nil {
			return db.Value{}, err
		}
		return db.S(s), nil
	case db.KindInt:
		i, err := d.varint()
		if err != nil {
			return db.Value{}, err
		}
		return db.I(i), nil
	case db.KindFloat:
		var b [8]byte
		if _, err := io.ReadFull(d.r, b[:]); err != nil {
			return db.Value{}, err
		}
		return db.F(math.Float64frombits(binary.LittleEndian.Uint64(b[:]))), nil
	default:
		return db.Value{}, fmt.Errorf("wal: unknown value kind %d", kind)
	}
}

func (d *recDecoder) count(limit uint64, what string) (uint64, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > limit {
		return 0, fmt.Errorf("wal: implausible %s count %d", what, n)
	}
	return n, nil
}

func (d *recDecoder) tuple() (db.Tuple, error) {
	n, err := d.count(maxWireArity, "tuple arity")
	if err != nil {
		return nil, err
	}
	t := make(db.Tuple, n)
	for i := range t {
		if t[i], err = d.value(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (d *recDecoder) term() (db.Term, error) {
	isConst, err := d.byte()
	if err != nil {
		return db.Term{}, err
	}
	if isConst == 1 {
		v, err := d.value()
		if err != nil {
			return db.Term{}, err
		}
		return db.Const(v), nil
	}
	name, err := d.str()
	if err != nil {
		return db.Term{}, err
	}
	n, err := d.count(maxWireCount, "disequality")
	if err != nil {
		return db.Term{}, err
	}
	if n == 0 {
		return db.AnyVar(name), nil
	}
	ne := make([]db.Value, n)
	for i := range ne {
		if ne[i], err = d.value(); err != nil {
			return db.Term{}, err
		}
	}
	return db.VarNotEq(name, ne...), nil
}

func (d *recDecoder) pattern() (db.Pattern, error) {
	n, err := d.count(maxWireArity, "pattern arity")
	if err != nil {
		return nil, err
	}
	p := make(db.Pattern, n)
	for i := range p {
		if p[i], err = d.term(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (d *recDecoder) update() (db.Update, error) {
	var u db.Update
	kind, err := d.byte()
	if err != nil {
		return u, err
	}
	u.Kind = db.UpdateKind(kind)
	if u.Rel, err = d.str(); err != nil {
		return u, err
	}
	switch u.Kind {
	case db.OpInsert:
		if u.Row, err = d.tuple(); err != nil {
			return u, err
		}
	case db.OpDelete:
		if u.Sel, err = d.pattern(); err != nil {
			return u, err
		}
	case db.OpModify:
		if u.Sel, err = d.pattern(); err != nil {
			return u, err
		}
		n, err := d.count(maxWireArity, "set clause")
		if err != nil {
			return u, err
		}
		u.Set = make([]db.SetClause, n)
		for i := range u.Set {
			set, err := d.byte()
			if err != nil {
				return u, err
			}
			if set == 1 {
				v, err := d.value()
				if err != nil {
					return u, err
				}
				u.Set[i] = db.SetTo(v)
			}
		}
	default:
		return u, fmt.Errorf("wal: unknown update kind %d", kind)
	}
	n, err := d.count(maxWireCount, "condition")
	if err != nil {
		return u, err
	}
	for i := uint64(0); i < n; i++ {
		left, err := d.varint()
		if err != nil {
			return u, err
		}
		right, err := d.varint()
		if err != nil {
			return u, err
		}
		neq, err := d.byte()
		if err != nil {
			return u, err
		}
		u.Conds = append(u.Conds, db.AttrCond{Left: int(left), Right: int(right), Neq: neq == 1})
	}
	return u, nil
}

// decodeRecord parses one record payload (the bytes inside a frame).
func decodeRecord(data []byte) (*Record, error) {
	d := &recDecoder{r: bytes.NewReader(data)}
	typ, err := d.byte()
	if err != nil {
		return nil, fmt.Errorf("wal: empty record")
	}
	rec := &Record{Type: typ}
	switch typ {
	case recTxn:
		t := &db.Transaction{}
		if t.Label, err = d.str(); err != nil {
			return nil, err
		}
		n, err := d.count(maxWireCount, "update")
		if err != nil {
			return nil, err
		}
		t.Updates = make([]db.Update, 0, min(n, 1024))
		for i := uint64(0); i < n; i++ {
			u, err := d.update()
			if err != nil {
				return nil, err
			}
			t.Updates = append(t.Updates, u)
		}
		rec.Txn = t
	case recRestore:
		if rec.Rel, err = d.str(); err != nil {
			return nil, err
		}
		if rec.Tuple, err = d.tuple(); err != nil {
			return nil, err
		}
		if rec.Ann, err = provstore.ReadExpr(d.r); err != nil {
			return nil, err
		}
	case recMinimize:
		// no payload
	case recBuildIndex, recDropIndex:
		if rec.Rel, err = d.str(); err != nil {
			return nil, err
		}
		if rec.Attr, err = d.str(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", typ)
	}
	return rec, nil
}
