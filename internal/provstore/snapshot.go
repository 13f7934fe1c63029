package provstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
)

// snapshotMagic identifies the format SaveSnapshot writes (version 3).
// LoadSnapshot also reads versions 1 and 2, which nothing writes any
// more.
const snapshotMagic = "HPRV3\n"

// Versions 2 and 3 store, after the magic, the mode byte and the schema,
// one stream of items per relation in schema order, told apart by a
// leading tag: a node tag starts one node of the shared expression table
// exactly as Encoder.emit writes it, taking the next node id; tagRow a
// row; tagEnd closes the relation. A row comes after exactly those nodes
// of its annotation that nothing earlier in the file emitted, children
// first (the order of one Encoder walk over the row list), and holds
//
//	mask    ⌈arity/8⌉ bytes; bit j (from the low bit of byte j/8) says
//	        column j repeats the previous row of the relation, which for
//	        the first row is 0, +0.0 and "" throughout
//	values  the other columns in order: an integer as the zig-zag varint
//	        of its wrapping difference to the previous row's; a string as
//	        a uvarint id into the dictionary of the file's strings in
//	        first-appearance order, id = len(dictionary) followed by the
//	        string it adds (uvarint length, bytes); a float as a uvarint
//	        zigzag(n)<<2|form — form 1 the integer n, form 2 n/100, when
//	        that is the float to the bit — or a 0 byte and the 8 raw
//	        little-endian bytes
//	root    uvarint distance back from the next node id to the annotation
//	        (1: the node just before the row)
//
// Version 3 writes nodes compactly (Encoder.compact: child references
// as distances back, variables prefix<i> by index), and a row whose
// annotation is the previous row's of its relation as tagRowSame, with
// no root.
const (
	tagRow     byte = 7
	tagEnd     byte = 8
	tagRowSame byte = 12
)

// Source is the engine surface the snapshot writer needs: the mode, the
// schema, and one deterministic pass over every stored row, relations
// in schema order. engine.Engine and its pinned views satisfy it and
// stream rows in insertion order, so the snapshot bytes are a function
// of the state alone.
type Source interface {
	Mode() engine.Mode
	Schema() *db.Schema
	Rows(f func(rel string, t db.Tuple, ann *core.Expr))
}

// SaveSnapshot persists the source's entire annotated database: the
// schema and every stored row — including tombstones — each behind the
// expression nodes it is first to need (structurally deduplicated across
// the file). LoadSnapshot restores the result into either engine mode.
//
// It is one src.Rows pass — a consistent cut, in deterministic order —
// encoded as it streams, so the bytes are a function of the state alone:
// identical across engine implementations and options. No row is
// kept beyond a window of 256; what grows with the state is the
// encoder's id index and the string dictionary.
func SaveSnapshot(w io.Writer, src Source) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(byte(src.Mode())); err != nil {
		return err
	}
	schema := src.Schema()
	names := schema.Names()
	rw := rowWriter{w: bw, enc: Encoder{w: bw, compact: true}, dict: make(map[uint64]uint64)}
	writeUvarint(bw, uint64(len(names)))
	for _, name := range names {
		rel := schema.Relation(name)
		rw.rels = append(rw.rels, rel)
		writeString(bw, rel.Name)
		writeUvarint(bw, uint64(len(rel.Attrs)))
		for _, a := range rel.Attrs {
			writeString(bw, a.Name)
			_ = bw.WriteByte(byte(a.Kind))
		}
	}
	src.Rows(rw.queue)
	rw.flush()
	for rw.err == nil && rw.cur < len(rw.rels) {
		rw.endRelation()
	}
	if rw.err != nil {
		return rw.err
	}
	return bw.Flush()
}

// rowWriter is the state of one SaveSnapshot pass.
type rowWriter struct {
	w    *bufio.Writer
	enc  Encoder // writes the nodes, into w
	rels []*db.RelationSchema
	cur  int               // relation being streamed; len(rels) after the last
	prev []db.Value        // its previous row; nil before the first
	root uint64            // the previous row's annotation
	dict map[uint64]uint64 // string value word → dictionary id
	buf  []byte            // the row under construction
	err  error

	// The pass takes turns: the source resolves up to 256 rows into the
	// window, then they are encoded. Resolving a row (its version chain)
	// and encoding one (its annotation's nodes, its tuple) are chains of
	// cache misses on disjoint memory: row by row they run end to end, in
	// turns the loads of one kind overlap, and queue reads a word of each
	// annotation's root so that row finds it cached (−40 % encode time).
	// The source lends each tuple for its call, so the window's are
	// copied into vals (32 kB), back to back: a window holds rows of one
	// relation and arity, and is full when either array is.
	window  [256]*core.Expr // the rows' annotations
	vals    [2048]db.Value
	n       int
	rel     string // the window's relation
	arity   int
	touched uint64 // what queue read: a store keeps the read
}

// zeroRow is the row a relation's first row is encoded against.
func zeroRow(rel *db.RelationSchema) []db.Value {
	row := make([]db.Value, len(rel.Attrs))
	for j, a := range rel.Attrs {
		switch a.Kind {
		case db.KindInt:
			row[j] = db.I(0)
		case db.KindFloat:
			row[j] = db.F(0)
		default:
			row[j] = db.S("")
		}
	}
	return row
}

// endRelation closes the current relation's stream and moves to the next.
func (rw *rowWriter) endRelation() {
	rw.err = rw.w.WriteByte(tagEnd)
	rw.cur++
	rw.prev = nil
}

func (rw *rowWriter) queue(rel string, t db.Tuple, ann *core.Expr) {
	if rw.n == len(rw.window) || (rw.n+1)*len(t) > len(rw.vals) || rel != rw.rel || len(t) != rw.arity {
		rw.flush()
		if rw.rel, rw.arity = rel, len(t); len(t) > len(rw.vals) {
			rw.row(rel, t, ann) // wider than the window holds
			return
		}
	}
	copy(rw.vals[rw.n*len(t):], t)
	rw.window[rw.n] = ann
	rw.n++
	rw.touched += ann.Hash()
}

func (rw *rowWriter) flush() {
	for i, ann := range rw.window[:rw.n] {
		rw.row(rw.rel, rw.vals[i*rw.arity:(i+1)*rw.arity], ann)
	}
	rw.n = 0
}

func (rw *rowWriter) row(name string, t db.Tuple, ann *core.Expr) {
	for rw.err == nil && rw.cur < len(rw.rels) && rw.rels[rw.cur].Name != name {
		rw.endRelation()
	}
	if rw.err == nil && rw.cur == len(rw.rels) {
		rw.err = fmt.Errorf("provstore: source streamed its relations out of schema order")
	}
	if rw.err != nil {
		return
	}
	attrs := rw.rels[rw.cur].Attrs
	if len(t) != len(attrs) {
		rw.err = fmt.Errorf("provstore: tuple of arity %d in relation %s of arity %d", len(t), name, len(attrs))
		return
	}
	first := rw.prev == nil
	if first {
		rw.prev = zeroRow(rw.rels[rw.cur])
	}
	root := rw.enc.add(ann)
	same := !first && root == rw.root
	buf := append(rw.buf[:0], tagRow)
	if same {
		buf[0] = tagRowSame
	}
	for i := 0; i < len(attrs); i += 8 {
		buf = append(buf, 0)
	}
	for j, v := range t {
		switch {
		case v.Kind() != attrs[j].Kind:
			rw.err = fmt.Errorf("provstore: value kind %v where %v expected", v.Kind(), attrs[j].Kind)
			return
		case v == rw.prev[j]:
			buf[1+j/8] |= 1 << (j % 8) // the mask follows the tag
			continue
		}
		switch v.Kind() {
		case db.KindInt:
			buf = binary.AppendVarint(buf, v.Int()-rw.prev[j].Int())
		case db.KindFloat:
			buf = AppendFloat(buf, v.Float())
		default: // a string
			id, known := rw.dict[v.Word()]
			if !known {
				id = uint64(len(rw.dict))
				rw.dict[v.Word()] = id
			}
			buf = binary.AppendUvarint(buf, id)
			if !known {
				s := v.Str()
				buf = append(binary.AppendUvarint(buf, uint64(len(s))), s...)
			}
		}
		rw.prev[j] = v
	}
	if rw.buf, rw.root = buf, root; !same {
		rw.buf = binary.AppendUvarint(buf, rw.enc.next-root)
	}
	if rw.err = rw.enc.err; rw.err == nil {
		_, rw.err = rw.w.Write(rw.buf)
	}
}

// shortFloatLimit bounds the integers of the short float forms: below
// it the header uvarint takes at most the 8 bytes of the raw payload.
const shortFloatLimit = 1 << 50

// AppendFloat encodes f in a short form when one decodes to f's exact
// bits — n or n/100 in a uvarint header — else raw: a zero header and
// the 8 little-endian bytes of its bits (-0, NaNs, infinities and sums
// like 0.1+0.2). The snapshot's rows and the WAL's schema-relative
// records write floats this way.
func AppendFloat(buf []byte, f float64) []byte {
	for form, scale := range [...]float64{1, 100} {
		if x := f * scale; math.Abs(x) < shortFloatLimit {
			n := int64(math.Round(x))
			if math.Float64bits(float64(n)/scale) == math.Float64bits(f) {
				return binary.AppendUvarint(buf, (uint64(n<<1)^uint64(n>>63))<<2|uint64(form+1))
			}
		}
	}
	return binary.LittleEndian.AppendUint64(append(buf, 0), math.Float64bits(f))
}

// FloatHeader decodes the header uvarint AppendFloat wrote: the value
// of a short form, or raw when the 8 bytes of the bits follow.
func FloatHeader(h uint64) (f float64, raw bool, err error) {
	n := float64(int64(h>>3) ^ -int64(h>>2&1))
	switch {
	case h == 0:
		return 0, true, nil
	case h&3 == 1:
		return n, false, nil
	case h&3 == 2:
		return n / 100, false, nil
	}
	return 0, false, fmt.Errorf("%w: float header %#x", ErrMalformed, h)
}

func readFloat(r *bufio.Reader) (float64, error) {
	h, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, err
	}
	f, raw, err := FloatHeader(h)
	if raw {
		var b [8]byte
		_, err = io.ReadFull(r, b[:])
		f = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	return f, err
}

// restoreFunc is the add of engine.Restore.
type restoreFunc = func(rel string, t db.Tuple, ann *core.Expr) error

// LoadSnapshot restores an annotated database saved by SaveSnapshot, in
// version 1, 2 or 3, as one restore epoch. The engine mode
// is taken from the snapshot; in normal-form mode every restored
// annotation becomes the tuple's base expression. Options pass through
// to engine.NewEmpty (a server swapping the result in passes the
// replaced engine's Options).
func LoadSnapshot(r io.Reader, opts ...engine.Option) (*engine.Engine, error) {
	start := time.Now()
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	version := magic[4]
	if string(magic[:4]) != snapshotMagic[:4] || magic[5] != '\n' || version < '1' || version > snapshotMagic[4] {
		return nil, fmt.Errorf("%w: bad snapshot magic %q", ErrMalformed, magic)
	}
	modeByte, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	mode := engine.Mode(modeByte)
	if mode != engine.ModeNaive && mode != engine.ModeNormalForm {
		return nil, fmt.Errorf("%w: unknown engine mode %d", ErrMalformed, modeByte)
	}
	nRels, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nRels > maxSchemaDim {
		return nil, fmt.Errorf("%w: implausible relation count %d", ErrMalformed, nRels)
	}
	rels := make([]*db.RelationSchema, 0, prealloc(nRels, 256))
	for i := uint64(0); i < nRels; i++ {
		name, err := readString(br)
		if err != nil {
			return nil, err
		}
		nAttrs, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if nAttrs > maxSchemaDim {
			return nil, fmt.Errorf("%w: implausible attribute count %d", ErrMalformed, nAttrs)
		}
		attrs := make([]db.Attribute, 0, prealloc(nAttrs, 256))
		for j := uint64(0); j < nAttrs; j++ {
			aname, err := readString(br)
			if err != nil {
				return nil, err
			}
			kind, err := br.ReadByte()
			if err != nil {
				return nil, err
			}
			attrs = append(attrs, db.Attribute{Name: aname, Kind: db.Kind(kind)})
		}
		rel, err := db.NewRelationSchema(name, attrs...)
		if err != nil {
			return nil, err
		}
		rels = append(rels, rel)
	}
	schema, err := db.NewSchema(rels...)
	if err != nil {
		return nil, err
	}
	e := engine.NewEmpty(mode, schema, opts...)
	if err := e.Restore(func(add restoreFunc) error {
		if version == '1' {
			return readRowsV1(br, rels, add)
		}
		return readRowStreams(br, rels, add, version == '3')
	}); err != nil {
		return nil, err
	}
	took := engine.Ms(time.Since(start))
	*e.Boot() = engine.BootStats{Source: "checkpoint", Rows: e.NumRows(), LoadMs: took, TotalMs: took}
	return e, nil
}

// readRowStreams decodes the relation streams of version 2, or of
// version 3 when v3. Everything it keeps — nodes, dictionaries, tuples —
// grows as the bytes that pay for it arrive. Rows reach add a window of
// rowWindow at a time, so that the run of leaves a window's annotations
// continue is interned by one core.Vars call (Decoder.mint), not one a
// row. Measured on the wire benchmark's checkpoints, a window of 256
// (the writer's) loads as fast with half again the allocations, and one
// of 4 096 loads slower (BENCH_49.json, decoder_bounds).
func readRowStreams(br *bufio.Reader, rels []*db.RelationSchema, add restoreFunc, v3 bool) error {
	const rowWindow = 1024
	dec := &Decoder{r: br, compact: v3}
	var dict, slab []db.Value // slab: room for the next rows' values, 64 KiB at a time
	type row struct {
		t    db.Tuple
		root uint64
	}
	window := make([]row, 0, rowWindow)
	flush := func(rel string) error {
		for _, r := range window {
			ann, _ := dec.child(r.root) // checked when the row was read
			if err := add(rel, r.t, ann); err != nil {
				return err
			}
		}
		window = window[:0]
		return nil
	}
	for _, rel := range rels {
		prev := db.Tuple(zeroRow(rel))
		mask := make([]byte, (len(rel.Attrs)+7)/8)
		root, first := uint64(0), true
		for {
			tag, err := br.ReadByte()
			if err != nil {
				return err
			}
			if tag == tagEnd {
				break
			}
			if tag != tagRow && (!v3 || tag != tagRowSame) {
				_ = br.UnreadByte()
				if err := dec.readNode(); err != nil {
					return err
				}
				continue
			}
			if _, err := io.ReadFull(br, mask); err != nil {
				return err
			}
			if n := len(rel.Attrs); n%8 != 0 && mask[n/8]>>(n%8) != 0 {
				return fmt.Errorf("%w: row mask wider than the relation's arity %d", ErrMalformed, n)
			}
			if len(slab) < len(rel.Attrs) {
				slab = make([]db.Value, max(len(rel.Attrs), 4096))
			}
			t := db.Tuple(slab[:len(rel.Attrs):len(rel.Attrs)])
			slab = slab[len(t):]
			for j, a := range rel.Attrs {
				if mask[j/8]>>(j%8)&1 != 0 {
					t[j] = prev[j]
					continue
				}
				switch a.Kind {
				case db.KindInt:
					d, err := binary.ReadVarint(br)
					if err != nil {
						return err
					}
					t[j] = db.I(prev[j].Int() + d)
				case db.KindFloat:
					f, err := readFloat(br)
					if err != nil {
						return err
					}
					t[j] = db.F(f)
				case db.KindString:
					id, err := binary.ReadUvarint(br)
					if err != nil {
						return err
					}
					if id > uint64(len(dict)) {
						return fmt.Errorf("%w: dictionary reference %d (have %d)", ErrMalformed, id, len(dict))
					}
					if id == uint64(len(dict)) {
						s, err := readString(br)
						if err != nil {
							return err
						}
						dict = append(dict, db.S(s))
					}
					t[j] = dict[id]
				default:
					return fmt.Errorf("%w: unknown kind %v", ErrMalformed, a.Kind)
				}
			}
			if tag == tagRowSame {
				if first {
					return fmt.Errorf("%w: the first row of %s repeats a root", ErrMalformed, rel.Name)
				}
			} else {
				back, err := binary.ReadUvarint(br)
				if err != nil {
					return err
				}
				if back == 0 || back > uint64(len(dec.nodes)) {
					return fmt.Errorf("%w: annotation %d nodes back (have %d)", ErrMalformed, back, len(dec.nodes))
				}
				root = uint64(len(dec.nodes)) - back
			}
			if window = append(window, row{t, root}); len(window) == rowWindow {
				if err := flush(rel.Name); err != nil {
					return err
				}
			}
			prev, first = t, false
		}
		if err := flush(rel.Name); err != nil {
			return err
		}
	}
	return nil
}

// readRowsV1 decodes the body of version 1: the whole node table behind
// its count, then per relation a row count and the rows, every value
// written out and the annotation as a node id.
func readRowsV1(br *bufio.Reader, rels []*db.RelationSchema, add restoreFunc) error {
	nNodes, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	if nNodes > 1<<40 {
		return fmt.Errorf("%w: implausible node count %d", ErrMalformed, nNodes)
	}
	dec := &Decoder{r: br}
	if err := dec.ReadNodes(nNodes); err != nil {
		return err
	}
	for _, rel := range rels {
		nRows, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		for i := uint64(0); i < nRows; i++ {
			t := make(db.Tuple, len(rel.Attrs))
			for j, a := range rel.Attrs {
				if t[j], err = readValue(br, a.Kind); err != nil {
					return err
				}
			}
			id, err := binary.ReadUvarint(br)
			if err != nil {
				return err
			}
			ann, err := dec.child(id)
			if err != nil {
				return err
			}
			if err := add(rel.Name, t, ann); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeUvarint appends into the writer's own spare room: a local
// scratch array would escape through Write, one allocation per number.
func writeUvarint(w *bufio.Writer, v uint64) {
	_, _ = w.Write(binary.AppendUvarint(w.AvailableBuffer(), v))
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	_, _ = w.WriteString(s)
}

// readString reads a uvarint-length-prefixed string, growing the buffer
// in bounded chunks as bytes actually arrive: a hostile length prefix
// costs the attacker proportional input, not a proportional allocation.
func readString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("%w: string length %d too large", ErrMalformed, n)
	}
	const chunk = 64 << 10
	buf := make([]byte, 0, prealloc(n, chunk))
	for uint64(len(buf)) < n {
		take := n - uint64(len(buf))
		if take > chunk {
			take = chunk
		}
		start := len(buf)
		buf = append(buf, make([]byte, take)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return "", err
		}
	}
	return string(buf), nil
}

func readValue(r *bufio.Reader, kind db.Kind) (db.Value, error) {
	switch kind {
	case db.KindString:
		s, err := readString(r)
		if err != nil {
			return db.Value{}, err
		}
		return db.S(s), nil
	case db.KindInt:
		i, err := binary.ReadVarint(r)
		if err != nil {
			return db.Value{}, err
		}
		return db.I(i), nil
	case db.KindFloat:
		var buf [8]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return db.Value{}, err
		}
		return db.F(math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))), nil
	default:
		return db.Value{}, fmt.Errorf("provstore: unknown kind %v", kind)
	}
}
