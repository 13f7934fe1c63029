package provstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
)

// snapshotMagic identifies the snapshot format (version 1).
const snapshotMagic = "HPRV1\n"

// Source is the engine surface the snapshot writer needs: the mode, the
// schema, and one deterministic pass over every stored row, relations
// in schema order. engine.Engine and its pinned views satisfy it
// (engine.Reader embeds it) and stream rows in the same order for every
// shard count, so the snapshot bytes are independent of it. NumRows sizes
// the row list; a commit between it and Rows only makes the list grow.
type Source interface {
	Mode() engine.Mode
	Schema() *db.Schema
	NumRows() int
	Rows(f func(rel string, t db.Tuple, ann *core.Expr))
}

// SaveSnapshot persists the engine's entire annotated database: the
// schema, one shared expression node table (structurally deduplicated),
// and every stored row — including tombstones — with a reference into
// the table. The result can be restored with LoadSnapshot into either
// engine mode.
//
// The row list is collected in one src.Rows pass — a consistent cut, in
// deterministic order — and the annotations are then encoded in that
// order by one Encoder walk, so the bytes are a function of the state
// alone: identical across engine implementations and shard counts.
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
	writeUvarint(bw, uint64(len(names)))
	for _, name := range names {
		rel := schema.Relation(name)
		writeString(bw, rel.Name)
		writeUvarint(bw, uint64(len(rel.Attrs)))
		for _, a := range rel.Attrs {
			writeString(bw, a.Name)
			_ = bw.WriteByte(byte(a.Kind))
		}
	}

	// Collect the rows. Rows pins one horizon for the whole pass, so
	// this is one consistent cut even while transactions apply
	// concurrently; the collected expressions are immutable (the engine
	// never mutates nodes in place), so encoding afterwards reads the
	// same values. Relations arrive in schema order: ends[i] is where
	// relation i's rows stop, 0 while it has none.
	type flatRow struct {
		tuple db.Tuple
		ann   *core.Expr
	}
	flat := make([]flatRow, 0, src.NumRows())
	ends := make([]int, len(names)+1)
	cur := 0
	src.Rows(func(name string, t db.Tuple, ann *core.Expr) {
		for cur < len(names) && names[cur] != name {
			cur++
		}
		flat = append(flat, flatRow{tuple: t, ann: ann})
		ends[cur] = len(flat)
	})
	if ends[len(names)] != 0 {
		return fmt.Errorf("provstore: source streamed its relations out of schema order")
	}

	var table bytes.Buffer
	enc := NewEncoder(&table)
	ids := make([]uint64, len(flat))
	for i := range flat {
		ids[i] = enc.add(flat[i].ann)
	}
	if err := enc.Flush(); err != nil {
		return err
	}
	writeUvarint(bw, enc.Len())
	if _, err := bw.Write(table.Bytes()); err != nil {
		return err
	}

	i := 0
	for r, name := range names {
		rel := schema.Relation(name)
		end := max(i, ends[r])
		writeUvarint(bw, uint64(end-i))
		for ; i < end; i++ {
			for j, v := range flat[i].tuple {
				if err := writeValue(bw, rel.Attrs[j].Kind, v); err != nil {
					return err
				}
			}
			writeUvarint(bw, ids[i])
		}
	}
	return bw.Flush()
}

// LoadSnapshot restores an annotated database saved by SaveSnapshot.
// The engine mode is taken from the snapshot; in normal-form mode every
// restored annotation becomes the tuple's base expression. Options pass
// through to engine.NewEmpty — engine.WithShards(n) restores into n
// storage shards; the default is one.
func LoadSnapshot(r io.Reader, opts ...engine.Option) (*engine.Engine, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != snapshotMagic {
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

	nNodes, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nNodes > 1<<40 {
		return nil, fmt.Errorf("%w: implausible node count %d", ErrMalformed, nNodes)
	}
	dec := NewDecoder(br)
	if err := dec.ReadNodes(nNodes); err != nil {
		return nil, err
	}

	e := engine.NewEmpty(mode, schema, opts...)
	for _, rel := range rels {
		nRows, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < nRows; i++ {
			t := make(db.Tuple, len(rel.Attrs))
			for j, a := range rel.Attrs {
				v, err := readValue(br, a.Kind)
				if err != nil {
					return nil, err
				}
				t[j] = v
			}
			id, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			ann, err := dec.Expr(id)
			if err != nil {
				return nil, err
			}
			if err := e.RestoreRow(rel.Name, t, ann); err != nil {
				return nil, err
			}
		}
	}
	return e, nil
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

func writeValue(w *bufio.Writer, kind db.Kind, v db.Value) error {
	if v.Kind() != kind {
		return fmt.Errorf("provstore: value kind %v where %v expected", v.Kind(), kind)
	}
	switch kind {
	case db.KindString:
		writeString(w, v.Str())
	case db.KindInt:
		_, _ = w.Write(binary.AppendVarint(w.AvailableBuffer(), v.Int()))
	case db.KindFloat:
		_, _ = w.Write(binary.LittleEndian.AppendUint64(w.AvailableBuffer(), math.Float64bits(v.Float())))
	default:
		return fmt.Errorf("provstore: unknown kind %v", kind)
	}
	return nil
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
