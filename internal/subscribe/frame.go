package subscribe

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
)

// Frame is one message of the streaming protocol, in the JSON shape the
// /v1/subscribe surface writes (ND-JSON lines or SSE data payloads).
// The manager appends frames as bytes — exactly those encoding/json
// (SetEscapeHTML(false)) produces for this struct — and never builds
// one; Frame and Row are what a client decodes into.
//
//   - "ack": a subscription was registered; Rows is its initial state at
//     Epoch. Every later frame for the ID reflects commits after Epoch.
//   - "delta": one committed transaction moved the subscription;
//     Added/Removed/Changed list the member rows that entered, left, or
//     (watches only) changed annotation.
//   - "resync": the client's copy went stale — the server dropped at
//     least one frame rather than block the write path — and Rows is the
//     full state at Epoch, replacing everything previously received.
//   - "error": the subscription ended: its next frame (or its ack, after
//     the stream's first) could not be built (Message says why).
//     Other IDs on the stream go on.
//
// Row lists come relations in schema order, tuples by Key() byte order.
// Acks and resyncs are written as they render, frameKeep bytes at most.
type Frame struct {
	Type    string `json:"type"`
	ID      string `json:"id,omitempty"`
	Kind    Kind   `json:"kind,omitempty"`
	Epoch   uint64 `json:"epoch"`
	Label   string `json:"label,omitempty"`
	Rows    []Row  `json:"rows,omitempty"`
	Added   []Row  `json:"added,omitempty"`
	Removed []Row  `json:"removed,omitempty"`
	Changed []Row  `json:"changed,omitempty"`
	Code    string `json:"code,omitempty"`
	Message string `json:"message,omitempty"`
}

// Row is one member row in a frame. Annotation is the row's provenance
// rendering (watch subscriptions only); a removed row carries the
// annotation it left with.
type Row struct {
	Rel        string `json:"rel"`
	Tuple      []any  `json:"tuple"`
	Annotation string `json:"annotation,omitempty"`
}

// frames recycles frame buffers between the dispatcher, which fills
// them, and Conn.Next, which hands the previous one back; frameKeep
// caps what returns to it, so one large snapshot pins nothing. Max is
// the hook queue's depth, a burst of commits' deltas; it retains at
// most queueDepth × frameKeep (64 MiB), though a delta is about 1 kB.
var frames = db.FreeList[*[]byte]{Max: queueDepth, New: func() *[]byte { b := make([]byte, 0, 1024); return &b }}

const frameKeep = 256 << 10

func putFrame(b *[]byte) {
	if cap(*b) <= frameKeep {
		frames.Put(b)
	}
}

// maxFrameNodes bounds the annotations one frame may carry, in
// expression-tree nodes — about 100 MB of text. A frame renders
// annotations as trees, and a tree can be exponentially larger than
// the DAG the engine stores (Proposition 5.1): a watched row modified
// thirty times onto its own tombstones has a 10⁹-node rendering.
const maxFrameNodes = 1 << 24

// span is a byte range of the fold's scratch buffer.
type span struct{ lo, hi int }

// touched is one row a frame may carry, named by its ref: its values
// are read from the fold's view when a frame needs them.
type touched struct {
	engine.RowRef
	before, after *core.Expr // its annotation on either side of the commit, nil when absent
	rel           int        // schema position, and
	key           span       // Tuple.Key(): the wire order
	head          span       // `{"rel":…,"tuple":[…]`, rendered by a commit's first delta to carry the row and shared by the rest
}

// tuple builds r's values into the fold's scratch: valid until the next
// call.
func (f *fold) tuple(r *touched) db.Tuple {
	f.tup, _ = engine.RowTuple(f.v, r.RowRef, f.tup) // add found the row
	return f.tup
}

// appendHead appends the row's `{"rel":…,"tuple":[…]`.
func (f *fold) appendHead(b []byte, r *touched) []byte {
	b, _ = f.tuple(r).AppendJSON(append(db.AppendJSONString(append(b, `{"rel":`...), r.Rel), `,"tuple":`...))
	return b
}

// ann is the row's annotation on one side of the commit.
func (r *touched) ann(after bool) *core.Expr {
	if after {
		return r.after
	}
	return r.before
}

// fold is the scratch for one commit (guarded by Manager.mu) or one
// snapshot (recycled through snaps): the rows in play, their keys, their
// wire order, the view their values are read through and a tuple to
// read them into.
type fold struct {
	rows  []touched
	order []int32
	buf   []byte
	v     engine.Reader
	tup   db.Tuple
}

// reset empties the fold for rows read through v.
func (f *fold) reset(v engine.Reader) {
	if cap(f.rows) > 1<<14 {
		*f = fold{} // a bulk commit's scratch is not kept for 25-row commits
	}
	f.rows, f.order, f.buf, f.v = f.rows[:0], f.order[:0], f.buf[:0], v
}

// add puts a row holding t in play, keyed for the wire order.
func (f *fold) add(rel int, ref engine.RowRef, t db.Tuple) *touched {
	lo := len(f.buf)
	f.buf = t.AppendKey(f.buf)
	f.order = append(f.order, int32(len(f.rows)))
	f.rows = append(f.rows, touched{RowRef: ref, rel: rel, key: span{lo, len(f.buf)}})
	return &f.rows[len(f.rows)-1]
}

// sort puts order into wire order: lists filled by walking it come
// out ordered.
func (f *fold) sort() {
	slices.SortFunc(f.order, func(a, b int32) int {
		ra, rb := &f.rows[a], &f.rows[b]
		if ra.rel != rb.rel {
			return ra.rel - rb.rel
		}
		return bytes.Compare(f.buf[ra.key.lo:ra.key.hi], f.buf[rb.key.lo:rb.key.hi])
	})
}

// rowList is one row list of a frame: its JSON name, rows of the fold,
// and the side of the commit their annotations are from.
type rowList struct {
	name  string
	rows  []int32
	after bool
}

// appendHead starts a frame: everything before the row lists.
func appendHead(b []byte, typ string, s *sub, epoch uint64, label string) []byte {
	b = append(append(append(b, `{"type":"`...), typ...), '"')
	b = strconv.AppendUint(append(append(b, s.head...), `,"epoch":`...), epoch, 10)
	if label != "" {
		b = db.AppendJSONString(append(b, `,"label":`...), label)
	}
	return b
}

// appendError appends the error frame that ends s; fail says why.
func appendError(b []byte, s *sub, fail string) []byte {
	b = append(appendHead(b, "error", s, s.since, ""), `,"code":"unframeable","message":`...)
	return append(db.AppendJSONString(b, fail), '}', '\n')
}

// unframeable says why the rows of lists cannot be framed for s — a
// float JSON cannot carry, or more annotation than maxFrameNodes — or
// returns "", before frame writes a byte.
func (f *fold) unframeable(s *sub, lists []rowList) string {
	nodes := uint64(0)
	for _, l := range lists {
		for _, i := range l.rows {
			r := &f.rows[i]
			for _, v := range f.tuple(r) {
				if f := v.Float(); math.IsNaN(f) || math.IsInf(f, 0) {
					return "a member row holds a float with no JSON encoding"
				}
			}
			if s.kern == nil { // watch rows carry their annotation; a size that overflowed counts as too large
				if nodes += min(uint64(r.ann(l.after).Size()), maxFrameNodes+1); nodes > maxFrameNodes {
					return "the frame's annotations exceed " + strconv.Itoa(maxFrameNodes) + " expression nodes"
				}
			}
		}
	}
	return ""
}

// frame appends s's frame out of rows unframeable passed to b. With w
// nil it returns the whole frame, sharing row heads with the commit's
// other frames; otherwise b is a window, written to w whenever it
// passes half of frameKeep and at the end, so it outgrows frameKeep
// only for a row larger than half of it. n counts the bytes.
func (f *fold) frame(b []byte, w io.Writer, typ string, s *sub, epoch uint64, label string, lists []rowList) (_ []byte, n int, err error) {
	b = appendHead(b, typ, s, epoch, label)
	for _, l := range lists {
		for k, i := range l.rows {
			if k == 0 {
				b = append(append(append(b, `,"`...), l.name...), `":[`...)
			} else {
				b = append(b, ',')
			}
			r := &f.rows[i]
			if w != nil {
				b = f.appendHead(b, r)
			} else {
				if r.head == (span{}) {
					lo := len(f.buf)
					f.buf = f.appendHead(f.buf, r)
					r.head = span{lo, len(f.buf)}
				}
				b = append(b, f.buf[r.head.lo:r.head.hi]...)
			}
			if s.kern == nil {
				// Names are escaped one by one; the text between them is
				// ASCII that JSON leaves alone.
				b = append(r.ann(l.after).AppendText(append(b, `,"annotation":"`...), db.AppendJSONEscaped), '"')
			}
			b = append(b, '}')
			if w != nil && len(b) >= frameKeep/2 {
				n += len(b)
				if _, err = w.Write(b); err != nil {
					return b[:0], n, err
				}
				b = b[:0]
			}
		}
		if len(l.rows) > 0 {
			b = append(b, ']')
		}
	}
	b = append(b, '}', '\n')
	if n += len(b); w != nil {
		_, err = w.Write(b)
		b = b[:0]
	}
	return b, n, err
}

// snapshot is an ack's or resync's scratch and render window.
type snapshot struct {
	fold
	window []byte
}

// snaps keeps the snapshots of one ack or resync a CPU rendering at
// once. A kept one holds its frameKeep window and the rows of the
// largest view it collected, ≈ 100 B a row, so that the next ack over
// that view allocates none of them.
var snaps = db.FreeList[*snapshot]{Max: runtime.NumCPU(), New: func() *snapshot { return &snapshot{window: make([]byte, 0, frameKeep)} }}

// collect gathers s's rows at its horizon for an ack or resync through
// the kernel (warming its memo) or the pattern, in wire order, and
// decides framability. It keeps refs, not values: the frame reads those
// from the view as it renders. Callers hold m.mu; the render it returns
// reads only the pinned view and s's head, so it runs after they release
// it.
func (m *Manager) collect(typ string, s *sub) (render func(w io.Writer) error, fail string) {
	v, sn := m.d.At(s.since), snaps.Get()
	sn.v = v           // release emptied the rest
	if s.kern != nil { // a what-if's members are most of the view
		sn.rows, sn.order = slices.Grow(sn.rows, v.NumRows()), slices.Grow(sn.order, v.NumRows())
	}
	for ri, rel := range v.Schema().Names() {
		if s.kern == nil && rel != s.spec.Rel {
			continue
		}
		engine.EachRowRef(v, rel, func(ref engine.RowRef, t db.Tuple, ann *core.Expr) {
			if s.kern != nil && s.kern.Eval(ann) || s.kern == nil && !ann.IsZero() && s.pat.Matches(t) {
				sn.add(ri, ref, t).after = ann
			}
		})
	}
	m.countMisses(s)
	sn.sort()
	lists, epoch := []rowList{{"rows", sn.order, true}}, s.since
	if fail = sn.unframeable(s, lists); fail != "" {
		sn.release()
		return nil, fail
	}
	return func(w io.Writer) error {
		b, n, err := sn.frame(sn.window, w, typ, s, epoch, "", lists)
		m.frameBytes.Add(uint64(n))
		if cap(b) <= frameKeep {
			sn.window = b
		}
		sn.release()
		return err
	}, ""
}

// release puts the snapshot back in snaps, its scratch emptied so it
// pins no row and no engine.
func (sn *snapshot) release() {
	clear(sn.rows)
	sn.rows, sn.order, sn.buf, sn.v = sn.rows[:0], sn.order[:0], sn.buf[:0], nil
	snaps.Put(sn)
}

// UnframeableError is why an ack could not be built; Frame is the
// "error" frame that ends the subscription on a stream under way.
type UnframeableError struct {
	ID, Reason string
	Frame      []byte
}

func (e *UnframeableError) Error() string { return fmt.Sprintf("subscription %q: %s", e.ID, e.Reason) }
