package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/upstruct"
)

// The what-if read path. /v1/db, /v1/whatif/deletion and
// /v1/whatif/abort all answer "the database under this Boolean
// valuation", and all through serveLive: engine.LiveStream evaluates
// the pinned MVCC view chunk by chunk in the body's relation order, each
// worker appends its chunk's live tuples as JSON to its window slot's
// recycled buffer, and the handler writes each chunk as soon as it is
// next. A body that ends inside the first window goes out with
// Content-Length, and errors up to then answer typed envelopes; a longer
// one goes out chunked, and an error after its first byte aborts the
// connection. The bytes are json.Encoder's (SetEscapeHTML(false)) for
// databaseJSON, the oracle the differential suite compares against.

// liveBufCap sizes a fresh slot buffer: a 1024-row chunk of a narrow
// relation encodes to about half of it. liveBufKeep caps what goes
// back to liveBufs, so one wide relation does not pin megabytes per
// kept buffer forever.
const (
	liveBufCap  = 64 << 10
	liveBufKeep = 1 << 20
)

// liveBufs keeps the slot buffers of one default window, two per CPU,
// between what-ifs: at most 2 × NumCPU × liveBufKeep retained.
var liveBufs = db.FreeList[*[]byte]{Max: 2 * runtime.NumCPU(), New: func() *[]byte {
	b := make([]byte, 0, liveBufCap)
	return &b
}}

// liveSlot is one window slot: `,[v,…]` per live tuple of its last chunk
// (the writer drops a relation's leading comma), in a buffer taken from
// liveBufs at its first chunk and reused for every later one.
type liveSlot struct {
	buf  *[]byte
	live int
	err  error
}

// encode renders a chunk's live tuples on the worker that evaluated it.
func (sl *liveSlot) encode(rel *db.RelationSchema, live engine.LiveRows) {
	if sl.buf == nil {
		sl.buf = liveBufs.Get()
	}
	b := (*sl.buf)[:0]
	sl.live, sl.err = 0, nil
	live.Each(func(t db.Tuple) {
		sl.live++
		b = append(b, ',')
		var bad int
		if b, bad = t.AppendJSON(b); bad >= 0 && sl.err == nil {
			sl.err = fmt.Errorf("relation %s attribute %s: float value %v has no JSON encoding", rel.Name, rel.Attrs[bad].Name, t[bad])
		}
	})
	*sl.buf = b
}

// liveBody renders the body around the slot buffers as chunks arrive in
// sorted relation order: each relation is opened by its first chunk or a
// later relation's, so an empty relation gets its glue too.
type liveBody struct {
	schema     *db.Schema
	names      []string // sorted
	opened     int      // relations whose glue is out
	begun      bool     // the header and the body's first bytes are out
	first      bool     // the open relation has no tuple out yet
	rows, live int
	glue       []byte
}

func (lb *liveBody) openNext() {
	if lb.opened > 0 {
		lb.glue = append(lb.glue, `]},`...)
	}
	rel := lb.schema.Relation(lb.names[lb.opened])
	lb.glue = append(db.AppendJSONString(lb.glue, rel.Name), `:{"attrs":[`...)
	for j, a := range rel.Attrs {
		if j > 0 {
			lb.glue = append(lb.glue, ',')
		}
		lb.glue = db.AppendJSONString(lb.glue, a.Name)
	}
	lb.glue = append(lb.glue, `],"tuples":[`...)
	lb.opened, lb.first = lb.opened+1, true
}

// put passes the bytes of ready, and with !more the body's tail, to out.
func (lb *liveBody) put(ready []engine.Chunk[liveSlot], more bool, out func([]byte)) {
	if !lb.begun {
		lb.glue, lb.begun = append(lb.glue, `{"relations":{`...), true
	}
	for _, c := range ready {
		for lb.opened == 0 || lb.names[lb.opened-1] != c.Rel {
			lb.openNext()
		}
		lb.rows, lb.live = lb.rows+c.Rows, lb.live+c.Slot.live
		if b := *c.Slot.buf; len(b) > 0 {
			if lb.first {
				b, lb.first = b[1:], false
			}
			out(lb.glue)
			out(b)
			lb.glue = lb.glue[:0]
		}
	}
	if !more {
		for lb.opened < len(lb.names) {
			lb.openNext()
		}
		if lb.opened > 0 {
			lb.glue = append(lb.glue, `]}`...)
		}
		lb.glue = strconv.AppendInt(append(lb.glue, `},"numTuples":`...), int64(lb.live), 10)
		lb.glue = append(lb.glue, '}', '\n')
	}
	out(lb.glue)
	lb.glue = lb.glue[:0]
}

// whatifStats accumulates the kernel's per-request measurements (see
// collectWhatifStats for the field meanings).
type whatifStats struct {
	requests, rowsEvaluated, rowsLive, respBytes, evalEncodeUs, writeUs, workers, streamed, aborted atomic.Int64
}

// serveLive answers the database selected by val over e — the live
// engine or an ?as_of= view, resolved by the caller — as
// {"relations":{name:{"attrs":[…],"tuples":[[…],…]},…},"numTuples":N}
// with relations in sorted-name order (encoding/json's map order),
// tuples in the engine's deterministic streaming order and numTuples
// last.
func (s *Server) serveLive(w http.ResponseWriter, req *http.Request, e engine.Reader, val *upstruct.Valuation) {
	workers, err := workersParam(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start, schema := time.Now(), e.Schema()
	body := liveBody{schema: schema, names: slices.Clone(schema.Names()), glue: make([]byte, 0, 512)}
	slices.Sort(body.names)
	var size int
	var inWrite time.Duration
	var werr error // the first failed write; later ones are skipped
	write := func(p []byte) {
		if werr == nil && len(p) > 0 {
			t := time.Now()
			var n int
			n, werr = w.Write(p)
			inWrite, size = inWrite+time.Since(t), size+n
		}
	}
	streamed := false
	slots, err := engine.LiveStream(req.Context(), e, val, workers, body.names,
		func(c engine.Chunk[liveSlot], live engine.LiveRows) { c.Slot.encode(schema.Relation(c.Rel), live) },
		func(ready []engine.Chunk[liveSlot], more bool) error {
			for _, c := range ready {
				if err := c.Slot.err; err != nil {
					return err
				}
			}
			if !body.begun { // the first window: the header goes first
				w.Header()["Content-Type"] = jsonContentType
				if streamed = more; !more {
					n, dry := 0, body // put keeps nothing in glue between calls, so a copy may share it
					dry.put(ready, false, func(p []byte) { n += len(p) })
					w.Header().Set("Content-Length", strconv.Itoa(n))
				}
				w.WriteHeader(http.StatusOK)
				if more { // chunked even if net/http could size it; a failed flush fails the next write
					_ = http.NewResponseController(w).Flush()
				}
			}
			body.put(ready, more, write)
			return werr
		})
	for _, sl := range slots {
		if sl.buf != nil && cap(*sl.buf) <= liveBufKeep {
			*sl.buf = (*sl.buf)[:0]
			liveBufs.Put(sl.buf)
		}
	}
	st := &s.whatif
	switch {
	case err == nil:
	case body.begun:
		// The 200 header is out: an envelope now would make a body that
		// half-parses. Abort; the client reads a truncated body.
		st.aborted.Add(1)
		panic(http.ErrAbortHandler)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeContextError(w, err)
		return
	default:
		writeError(w, http.StatusInternalServerError, codeInternal, "encoding response: %v", err)
		return
	}
	st.requests.Add(1)
	st.rowsEvaluated.Add(int64(body.rows))
	st.rowsLive.Add(int64(body.live))
	st.respBytes.Add(int64(size))
	st.evalEncodeUs.Add((time.Since(start) - inWrite).Microseconds())
	st.writeUs.Add(inWrite.Microseconds())
	st.workers.Add(int64(workers))
	if streamed {
		st.streamed.Add(1)
	}
}

// collectWhatifStats reports the what-if read path's cumulative
// counters, updated once per answered /v1/db, /v1/whatif/deletion or
// /v1/whatif/abort request: requests, rows evaluated and live, body
// bytes, microseconds waiting for the next chunk and inside Write
// (together the body time), worker counts summed (divide by
// whatifRequests), and responses sent chunked. whatifAborted counts
// connections aborted after the first byte, which count nowhere else.
func collectWhatifStats(s *Server, e engine.DB, out map[string]any) {
	st := &s.whatif
	out["whatifRequests"] = st.requests.Load()
	out["whatifRowsEvaluated"] = st.rowsEvaluated.Load()
	out["whatifRowsLive"] = st.rowsLive.Load()
	out["whatifRespBytes"] = st.respBytes.Load()
	out["whatifEvalEncodeUs"] = st.evalEncodeUs.Load()
	out["whatifWriteUs"] = st.writeUs.Load()
	out["whatifWorkers"] = st.workers.Load()
	out["whatifStreamed"] = st.streamed.Load()
	out["whatifAborted"] = st.aborted.Load()
}
