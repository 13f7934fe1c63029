package provstore

// The snapshot encoder as it stood before the one-pass pointer-keyed
// walk, kept verbatim (names prefixed) as the oracle of
// oracle_diff_test.go: fingerprint buckets from the first node on, and
// worker goroutines building local node tables that a sequential merge
// replays. Its bytes define version 1 of the format, which nothing else
// writes any more: LoadSnapshot still reads it, and what a later file
// restores is checked by re-saving through this encoder.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
)

const oracleMagic = "HPRV1\n"

// oracleEncoder writes expressions into a shared node table with structural
// deduplication: each distinct subterm is emitted once, with children
// referenced by backwards node ids, so the stream stores the DAG, not
// the trees. Create one with newOracleEncoder, Add every expression, then
// Flush; Add returns the node index that identifies the expression in
// the table (to be stored wherever the annotation is referenced).
//
// Hash-consed (interned) expressions are deduplicated by canonical
// pointer in O(1); the fingerprint buckets remain as the fallback so
// that non-interned trees (naive copy-on-write snapshots) still
// deduplicate structurally against everything already emitted — the
// two paths assign identical ids, keeping the bytes identical to the
// pre-interning format (see the golden-file test).
type oracleEncoder struct {
	w     *bufio.Writer
	ptr   map[*core.Expr]uint64
	index map[uint64][]dedupEntry
	next  uint64
	buf   [binary.MaxVarintLen64]byte
	err   error
}

// newOracleEncoder returns an encoder writing the node table to w.
func newOracleEncoder(w io.Writer) *oracleEncoder {
	return &oracleEncoder{
		w:     bufio.NewWriter(w),
		ptr:   make(map[*core.Expr]uint64),
		index: make(map[uint64][]dedupEntry),
	}
}

func (e *oracleEncoder) uvarint(v uint64) {
	if e.err != nil {
		return
	}
	n := binary.PutUvarint(e.buf[:], v)
	_, e.err = e.w.Write(e.buf[:n])
}

func (e *oracleEncoder) str(s string) {
	e.uvarint(uint64(len(s)))
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

func (e *oracleEncoder) byte(b byte) {
	if e.err == nil {
		e.err = e.w.WriteByte(b)
	}
}

// Add writes the expression's missing nodes to the table and returns its
// node id. Structurally equal expressions share one id.
func (e *oracleEncoder) Add(x *core.Expr) (uint64, error) {
	id := e.add(x)
	return id, e.err
}

func (e *oracleEncoder) add(x *core.Expr) uint64 {
	if id, ok := e.ptr[x]; ok {
		return id
	}
	h := x.Hash()
	for _, prev := range e.index[h] {
		if prev.expr == x || prev.expr.Equal(x) {
			e.ptr[x] = prev.id
			return prev.id
		}
	}
	// Children first: references always point backwards.
	var kids []uint64
	if n := x.NumChildren(); n > 0 {
		kids = make([]uint64, n)
		for i := 0; i < n; i++ {
			kids[i] = e.add(x.Child(i))
		}
	}
	id := e.next
	e.next++
	e.ptr[x] = id
	e.index[h] = append(e.index[h], dedupEntry{expr: x, id: id})
	e.emit(x, kids)
	return id
}

// emit writes one table node whose children already have the given
// global ids. Both the recursive add path and the parallel merge path
// (addFlat) funnel through here, so the wire format is defined once.
func (e *oracleEncoder) emit(x *core.Expr, kids []uint64) {
	switch x.Op() {
	case core.OpZero:
		e.byte(tagZero)
	case core.OpVar:
		e.byte(tagVar)
		a := x.Annot()
		e.byte(byte(a.Kind))
		e.str(a.Name)
	case core.OpPlusI, core.OpMinus, core.OpPlusM, core.OpDotM:
		e.byte(map[core.Op]byte{
			core.OpPlusI: tagPlusI, core.OpMinus: tagMinus,
			core.OpPlusM: tagPlusM, core.OpDotM: tagDotM,
		}[x.Op()])
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

// addFlat registers and emits a node whose children are already in the
// table under the given global ids, deduplicating against everything
// emitted so far exactly like add. It is the merge half of the parallel
// snapshot encoder: workers pre-walk their expressions into local node
// lists (children-first), and replaying those lists through addFlat in
// chunk order assigns the same ids — hence the same bytes — as a
// sequential add over the same expressions.
func (e *oracleEncoder) addFlat(x *core.Expr, kids []uint64) uint64 {
	if id, ok := e.ptr[x]; ok {
		return id
	}
	h := x.Hash()
	for _, prev := range e.index[h] {
		if prev.expr == x || prev.expr.Equal(x) {
			e.ptr[x] = prev.id
			return prev.id
		}
	}
	id := e.next
	e.next++
	e.ptr[x] = id
	e.index[h] = append(e.index[h], dedupEntry{expr: x, id: id})
	e.emit(x, kids)
	return id
}

// Len reports the number of table nodes written so far (the DAG size of
// everything added).
func (e *oracleEncoder) Len() uint64 { return e.next }

// Flush completes the stream.
func (e *oracleEncoder) Flush() error {
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// Parallel node-table construction. Workers pre-walk disjoint chunks of
// the annotation list into local node tables — each a children-first
// first-visit ordering of the chunk's expression DAG, deduplicated
// locally — and a sequential merge replays the local lists in chunk
// order through oracleEncoder.addFlat. Because the merge deduplicates against
// everything already emitted and visits nodes in exactly the order a
// sequential encode of the same annotation list would first reach them,
// the assigned ids, the node table, and hence the snapshot bytes are
// identical to the sequential encoder's.

// oracleLocalNode is one node of a worker's private table; kids are local
// ids, remapped to global ids during the merge.
type oracleLocalNode struct {
	expr *core.Expr
	kids []int
}

type oracleLocalDedup struct {
	expr *core.Expr
	id   int
}

type oracleLocalTable struct {
	nodes []oracleLocalNode
	ptr   map[*core.Expr]int
	index map[uint64][]oracleLocalDedup
	roots []int // local root id per annotation of the chunk
}

func oracleBuildLocal(anns []*core.Expr) *oracleLocalTable {
	lt := &oracleLocalTable{
		ptr:   make(map[*core.Expr]int),
		index: make(map[uint64][]oracleLocalDedup),
	}
	for _, ann := range anns {
		lt.roots = append(lt.roots, lt.add(ann))
	}
	return lt
}

// add mirrors oracleEncoder.add — pointer fast path, fingerprint-bucket
// fallback, children first — without emitting any bytes.
func (lt *oracleLocalTable) add(x *core.Expr) int {
	if id, ok := lt.ptr[x]; ok {
		return id
	}
	h := x.Hash()
	for _, prev := range lt.index[h] {
		if prev.expr == x || prev.expr.Equal(x) {
			lt.ptr[x] = prev.id
			return prev.id
		}
	}
	var kids []int
	if n := x.NumChildren(); n > 0 {
		kids = make([]int, n)
		for i := 0; i < n; i++ {
			kids[i] = lt.add(x.Child(i))
		}
	}
	id := len(lt.nodes)
	lt.nodes = append(lt.nodes, oracleLocalNode{expr: x, kids: kids})
	lt.ptr[x] = id
	lt.index[h] = append(lt.index[h], oracleLocalDedup{expr: x, id: id})
	return id
}

// oracleEncodeAll writes every annotation into the encoder's node table and
// returns their node ids, using up to workers goroutines for the
// expression walks. workers <= 1 (or a trivially small input) is the
// plain sequential path; the outputs are byte-identical either way.
func oracleEncodeAll(enc *oracleEncoder, anns []*core.Expr, workers int) ([]uint64, error) {
	ids := make([]uint64, len(anns))
	if workers <= 1 || len(anns) < 2*workers {
		for i, ann := range anns {
			id, err := enc.Add(ann)
			if err != nil {
				return nil, err
			}
			ids[i] = id
		}
		return ids, enc.Flush()
	}
	per := (len(anns) + workers - 1) / workers
	type span struct{ start, end int }
	var spans []span
	for s := 0; s < len(anns); s += per {
		spans = append(spans, span{s, min(s+per, len(anns))})
	}
	tables := make([]*oracleLocalTable, len(spans))
	var wg sync.WaitGroup
	for i := range spans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tables[i] = oracleBuildLocal(anns[spans[i].start:spans[i].end])
		}(i)
	}
	wg.Wait()
	// Sequential merge in chunk order: replay each local table through
	// the shared encoder, remapping local child ids to global ones.
	for ci, lt := range tables {
		global := make([]uint64, len(lt.nodes))
		for ni, n := range lt.nodes {
			gk := make([]uint64, len(n.kids))
			for k, lk := range n.kids {
				gk[k] = global[lk]
			}
			global[ni] = enc.addFlat(n.expr, gk)
		}
		for k, root := range lt.roots {
			ids[spans[ci].start+k] = global[root]
		}
	}
	return ids, enc.Flush()
}

// oracleSaveSnapshot is SaveSnapshot with the expression encoding
// spread over workers goroutines (0 = GOMAXPROCS). The row list is
// collected in one src.Rows pass — a consistent cut under the source's
// read lock(s), in deterministic order — then workers walk disjoint
// chunks of the annotations into local node tables that merge
// sequentially in chunk order. The merge assigns node ids in exactly
// the first-visit order a sequential encode would use, so the output is
// byte-identical for every worker count (the differential tests check
// this), and byte-identical across engine implementations.
func oracleSaveSnapshot(w io.Writer, src Source, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(oracleMagic); err != nil {
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

	// Collect the rows. Rows holds the engine's read lock(s) for the
	// whole pass, so this is one consistent cut even while transactions
	// apply concurrently; the collected expressions are immutable (the
	// engine never mutates nodes in place), so encoding after the lock
	// is released reads the same values.
	type flatRow struct {
		rel   string
		tuple db.Tuple
		ann   *core.Expr
	}
	var flat []flatRow
	src.Rows(func(name string, t db.Tuple, ann *core.Expr) {
		flat = append(flat, flatRow{rel: name, tuple: t.Clone(), ann: ann}) // Rows lends t
	})

	anns := make([]*core.Expr, len(flat))
	for i := range flat {
		anns[i] = flat[i].ann
	}
	var table bytes.Buffer
	enc := newOracleEncoder(&table)
	ids, err := oracleEncodeAll(enc, anns, workers)
	if err != nil {
		return err
	}
	writeUvarint(bw, enc.Len())
	if _, err := bw.Write(table.Bytes()); err != nil {
		return err
	}

	// Rows per relation. Rows visits relations contiguously in schema
	// order, so grouping flat indices by relation preserves row order.
	byRel := make(map[string][]int, len(names))
	for i := range flat {
		byRel[flat[i].rel] = append(byRel[flat[i].rel], i)
	}
	for _, name := range names {
		rel := schema.Relation(name)
		idxs := byRel[name]
		writeUvarint(bw, uint64(len(idxs)))
		for _, i := range idxs {
			for j, v := range flat[i].tuple {
				if err := oracleWriteValue(bw, rel.Attrs[j].Kind, v); err != nil {
					return err
				}
			}
			writeUvarint(bw, ids[i])
		}
	}
	return bw.Flush()
}

func oracleWriteValue(w *bufio.Writer, kind db.Kind, v db.Value) error {
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
