package provstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"hyperprov/internal/core"
)

// node type tags of the expression codec.
const (
	tagZero  byte = 0
	tagVar   byte = 1
	tagPlusI byte = 2
	tagMinus byte = 3
	tagPlusM byte = 4
	tagDotM  byte = 5
	tagSum   byte = 6
)

// ErrMalformed wraps every structural decoding failure — bad magic,
// unknown tags, implausible counts, out-of-range references — so
// callers can branch on hostile or corrupt input without string
// matching. Plain io errors (unexpected EOF) are not wrapped.
var ErrMalformed = errors.New("provstore: malformed input")

// Hard upper bounds on attacker-controlled uvarint counts. They exist
// to classify garbage early with a typed error; the real defense
// against allocation bombs is that every slice below grows only as
// bytes actually arrive (capped preallocation + append).
const (
	maxStringLen = 1 << 24 // annotation names, relation/attribute names
	maxSumArity  = 1 << 24 // children of one OpSum node
	maxSchemaDim = 1 << 16 // relations in a schema, attributes in a relation
)

// prealloc bounds a claimed element count to a small initial capacity:
// decoding loops append as elements actually decode, so a hostile count
// cannot force a large up-front allocation.
func prealloc(claimed, cap uint64) int {
	if claimed < cap {
		return int(claimed)
	}
	return int(cap)
}

// Encoder writes expressions into a shared node table with structural
// deduplication: each distinct subterm is emitted once, with children
// referenced by backwards node ids, so the stream stores the DAG, not
// the trees. Create one with NewEncoder, Add every expression, then
// Flush; Add returns the node index that identifies the expression in
// the table (to be stored wherever the annotation is referenced).
//
// One children-first walk. Canonical nodes are pointer-equal iff
// structurally equal and carry dense ids, so for them an id-indexed
// table of the numbers handed out is the whole deduplication. Raw trees
// (DeepCopy results: the naive copy-on-write ablation) must match
// structurally against everything emitted, and everything after them
// against the raw nodes: a raw node repeats an emitted canonical one
// exactly when its canonical twin — found through the intern table,
// which is the fingerprint index of every canonical node there is — has
// a number, and the raw nodes emitted so far sit in fingerprint buckets
// of their own. A node gets a fresh id exactly when nothing emitted
// before it is structurally equal — the rule of the encoder that kept
// buckets for everything (oracle_test.go), so every byte is unchanged;
// DESIGN.md §3.14 has the argument.
type Encoder struct {
	w     *bufio.Writer
	ids   core.NodeIndex          // canonical node → table id
	index map[uint64][]dedupEntry // emitted raw nodes by fingerprint
	kids  []uint64                // child ids of the nodes on the walk's stack
	next  uint64
	buf   [binary.MaxVarintLen64]byte
	name  []byte // the annotation name being written
	err   error
}

type dedupEntry struct {
	expr *core.Expr
	id   uint64
}

// NewEncoder returns an encoder writing the node table to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: bufio.NewWriter(w)} }

func (e *Encoder) uvarint(v uint64) {
	if e.err != nil {
		return
	}
	n := binary.PutUvarint(e.buf[:], v)
	_, e.err = e.w.Write(e.buf[:n])
}

func (e *Encoder) str(s []byte) {
	e.uvarint(uint64(len(s)))
	if e.err == nil {
		_, e.err = e.w.Write(s)
	}
}

func (e *Encoder) byte(b byte) {
	if e.err == nil {
		e.err = e.w.WriteByte(b)
	}
}

// Add writes the expression's missing nodes to the table and returns its
// node id. Structurally equal expressions share one id.
func (e *Encoder) Add(x *core.Expr) (uint64, error) {
	id := e.add(x)
	return id, e.err
}

func (e *Encoder) add(x *core.Expr) uint64 {
	// x itself if canonical, else its canonical twin, if it has one.
	if canon := core.Lookup(x); canon != nil {
		if id, ok := e.ids.Get(canon); ok {
			return id
		}
	}
	h := x.Hash()
	for _, prev := range e.index[h] {
		if prev.expr.Equal(x) {
			if x.Interned() {
				e.ids.Set(x, prev.id)
			}
			return prev.id
		}
	}
	// Children first: references always point backwards. Their ids sit
	// on the kids stack above whatever the enclosing nodes have pushed.
	base := len(e.kids)
	for _, k := range x.Children() {
		id := e.add(k) // grows e.kids: read it after the call
		e.kids = append(e.kids, id)
	}
	id := e.next
	e.next++
	if x.Interned() {
		e.ids.Set(x, id)
	} else {
		if e.index == nil {
			e.index = make(map[uint64][]dedupEntry)
		}
		e.index[h] = append(e.index[h], dedupEntry{x, id})
	}
	e.emit(x, e.kids[base:])
	e.kids = e.kids[:base]
	return id
}

var binaryTags = [...]byte{core.OpPlusI: tagPlusI, core.OpMinus: tagMinus, core.OpPlusM: tagPlusM, core.OpDotM: tagDotM}

// emit writes one table node whose children already have the given
// ids; the wire format is defined here and nowhere else.
func (e *Encoder) emit(x *core.Expr, kids []uint64) {
	switch x.Op() {
	case core.OpZero:
		e.byte(tagZero)
	case core.OpVar:
		e.byte(tagVar)
		var kind core.AnnotKind
		e.name, kind = x.AppendAnnot(e.name[:0])
		e.byte(byte(kind))
		e.str(e.name)
	case core.OpPlusI, core.OpMinus, core.OpPlusM, core.OpDotM:
		e.byte(binaryTags[x.Op()])
		e.uvarint(kids[0])
		e.uvarint(kids[1])
	case core.OpSum:
		e.byte(tagSum)
		e.uvarint(uint64(len(kids)))
		for _, k := range kids {
			e.uvarint(k)
		}
	default:
		if e.err == nil {
			e.err = fmt.Errorf("provstore: unknown op %v", x.Op())
		}
	}
}

// Len reports the number of table nodes written so far (the DAG size of
// everything added).
func (e *Encoder) Len() uint64 { return e.next }

// Flush completes the stream.
func (e *Encoder) Flush() error {
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// Decoder reads a node table produced by Encoder.
type Decoder struct {
	r     *bufio.Reader
	nodes []*core.Expr
}

// NewDecoder returns a decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReader(r)}
}

// ReadNodes consumes exactly n table nodes.
func (d *Decoder) ReadNodes(n uint64) error {
	for i := uint64(0); i < n; i++ {
		if err := d.readNode(); err != nil {
			return err
		}
	}
	return nil
}

func (d *Decoder) child(id uint64) (*core.Expr, error) {
	if id >= uint64(len(d.nodes)) {
		return nil, fmt.Errorf("%w: forward node reference %d (have %d)", ErrMalformed, id, len(d.nodes))
	}
	return d.nodes[id], nil
}

func (d *Decoder) readNode() error {
	tag, err := d.r.ReadByte()
	if err != nil {
		return err
	}
	switch tag {
	case tagZero:
		d.nodes = append(d.nodes, core.Zero())
	case tagVar:
		kind, err := d.r.ReadByte()
		if err != nil {
			return err
		}
		name, err := d.readString()
		if err != nil {
			return err
		}
		d.nodes = append(d.nodes, core.Var(core.Annot{Name: name, Kind: core.AnnotKind(kind)}))
	case tagPlusI, tagMinus, tagPlusM, tagDotM:
		l, err := d.readRef()
		if err != nil {
			return err
		}
		r, err := d.readRef()
		if err != nil {
			return err
		}
		var x *core.Expr
		switch tag {
		case tagPlusI:
			x = core.PlusI(l, r)
		case tagMinus:
			x = core.Minus(l, r)
		case tagPlusM:
			x = core.PlusM(l, r)
		default:
			x = core.DotM(l, r)
		}
		d.nodes = append(d.nodes, x)
	case tagSum:
		n, err := binary.ReadUvarint(d.r)
		if err != nil {
			return err
		}
		if n > maxSumArity {
			return fmt.Errorf("%w: implausible sum arity %d", ErrMalformed, n)
		}
		// Capped preallocation: each child reference costs at least one
		// input byte, so the slice grows with the input, not with the
		// claimed arity.
		kids := make([]*core.Expr, 0, prealloc(n, 1024))
		for i := uint64(0); i < n; i++ {
			k, err := d.readRef()
			if err != nil {
				return err
			}
			kids = append(kids, k)
		}
		// Sum flattens and collapses; to preserve the encoded identity we
		// rely on the encoder only emitting sums as they appear in
		// expressions (already flat, ≥2 children).
		d.nodes = append(d.nodes, core.Sum(kids...))
	default:
		return fmt.Errorf("%w: unknown node tag %d", ErrMalformed, tag)
	}
	return nil
}

func (d *Decoder) readRef() (*core.Expr, error) {
	id, err := binary.ReadUvarint(d.r)
	if err != nil {
		return nil, err
	}
	return d.child(id)
}

func (d *Decoder) readString() (string, error) {
	return readString(d.r)
}

// Expr returns the decoded expression with the given node id.
func (d *Decoder) Expr(id uint64) (*core.Expr, error) {
	return d.child(id)
}

// WriteExpr encodes a single expression: a header (node count, root id)
// followed by the node table.
func WriteExpr(w io.Writer, x *core.Expr) error {
	var table bytes.Buffer
	enc := NewEncoder(&table)
	id, err := enc.Add(x)
	if err != nil {
		return err
	}
	if err := enc.Flush(); err != nil {
		return err
	}
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], enc.Len())
	n += binary.PutUvarint(hdr[n:], id)
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	_, err = w.Write(table.Bytes())
	return err
}

// ReadExpr decodes an expression written by WriteExpr.
func ReadExpr(r io.Reader) (*core.Expr, error) {
	br := bufio.NewReader(r)
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	root, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	dec := NewDecoder(br)
	if err := dec.ReadNodes(count); err != nil {
		return nil, err
	}
	return dec.Expr(root)
}
