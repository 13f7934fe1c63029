package subscribe

import (
	"bytes"
	"slices"
	"strconv"
	"sync"

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
//   - "error": the subscription ended: its next frame could not be
//     built (Message says why). Other IDs on the stream go on.
//
// Row lists come relations in schema order, tuples by Key() byte order.
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

// framePool recycles frame buffers between the dispatcher, which fills
// them, and Conn.Next, which hands the previous one back; frameKeep
// caps what returns to it, so one large snapshot pins nothing.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

const frameKeep = 256 << 10

func putFrame(b *[]byte) {
	if cap(*b) <= frameKeep {
		framePool.Put(b)
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

// touched is one row a frame may carry.
type touched struct {
	engine.RowRef
	before, after *core.Expr // its annotation on either side of the commit, nil when absent
	rel           int        // schema position, and
	key           span       // Tuple.Key(): the wire order
	head          span       // `{"rel":…,"tuple":[…]`, rendered by the first frame to carry the row and shared by the rest
	bad           bool       // the tuple has a float JSON cannot carry
}

// fold is the manager's scratch for one commit (or one snapshot),
// reused from one to the next: the rows in play, their keys and shared
// encodings in buf, and their wire order. Guarded by Manager.mu.
type fold struct {
	rows  []touched
	order []int32
	buf   []byte
}

func (f *fold) reset() {
	if cap(f.rows) > 1<<14 {
		*f = fold{} // a snapshot's worth of scratch is not kept for 25-row commits
	}
	f.rows, f.order, f.buf = f.rows[:0], f.order[:0], f.buf[:0]
}

// add puts a row in play, keyed for the wire order.
func (f *fold) add(rel int, ref engine.RowRef) *touched {
	lo := len(f.buf)
	f.buf = ref.Tuple.AppendKey(f.buf)
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

// frame encodes one frame for s out of rows in play. A non-empty fail
// says why there is no frame: a float JSON cannot carry, or more
// annotation than maxFrameNodes.
func (f *fold) frame(typ string, s *sub, epoch uint64, label string, lists ...rowList) (frame *[]byte, fail string) {
	frame = framePool.Get().(*[]byte)
	b := appendHead((*frame)[:0], typ, s, epoch, label)
	nodes := uint64(0)
	for _, l := range lists {
		for n, i := range l.rows {
			r := &f.rows[i]
			if r.head == (span{}) {
				lo, bad := len(f.buf), 0
				f.buf = db.AppendJSONString(append(f.buf, `{"rel":`...), r.Rel)
				f.buf, bad = r.Tuple.AppendJSON(append(f.buf, `,"tuple":`...))
				r.head, r.bad = span{lo, len(f.buf)}, bad >= 0
			}
			if n == 0 {
				b = append(append(append(b, `,"`...), l.name...), `":[`...)
			} else {
				b = append(b, ',')
			}
			b = append(b, f.buf[r.head.lo:r.head.hi]...)
			ann := r.before
			if l.after {
				ann = r.after
			}
			if s.kern == nil { // watch rows carry their annotation; a size that overflowed counts as too large
				nodes += min(uint64(ann.Size()), maxFrameNodes+1)
			}
			switch {
			case r.bad:
				fail = "a member row holds a float with no JSON encoding"
			case nodes > maxFrameNodes:
				fail = "the frame's annotations exceed " + strconv.Itoa(maxFrameNodes) + " expression nodes"
			case s.kern == nil && fail == "":
				// Names are escaped one by one; the text between them is
				// ASCII that JSON leaves alone.
				b = append(ann.AppendText(append(b, `,"annotation":"`...), db.AppendJSONEscaped), '"')
			}
			b = append(b, '}')
		}
		if len(l.rows) > 0 {
			b = append(b, ']')
		}
	}
	if *frame = append(b, '}', '\n'); fail != "" {
		putFrame(frame)
		return nil, fail
	}
	return frame, ""
}

// snapshot encodes s's full state at its own horizon — the rows of an
// ack or resync frame — by streaming the pinned view through the
// kernel (what-ifs) or the pattern (watches). Callers hold m.mu.
func (m *Manager) snapshot(typ string, s *sub) (frame *[]byte, fail string) {
	v, f := m.d.At(s.since), &m.fold
	f.reset()
	for ri, rel := range v.Schema().Names() {
		if s.kern == nil && rel != s.spec.Rel {
			continue
		}
		v.EachRow(rel, func(t db.Tuple, ann *core.Expr) {
			if s.kern != nil && s.kern.Eval(ann) || s.kern == nil && !ann.IsZero() && s.pat.Matches(t) {
				f.add(ri, engine.RowRef{Rel: rel, Tuple: t}).after = ann
			}
		})
	}
	m.countMisses(s)
	f.sort()
	if frame, fail = f.frame(typ, s, engine.SeqEpoch(s.since), "", rowList{"rows", f.order, true}); fail == "" {
		m.frameBytes.Add(uint64(len(*frame)))
	}
	return frame, fail
}
