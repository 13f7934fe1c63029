package server

import (
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/upstruct"
)

// The what-if read path. /v1/db, /v1/whatif/deletion and
// /v1/whatif/abort all answer "the database under this Boolean
// valuation", and all through serveLive: engine.LiveChunks evaluates
// the pinned MVCC view chunk by chunk, and each worker appends the
// JSON of its chunk's live tuples straight into a pooled byte buffer —
// no db.Database, no [][]any, no reflective encoder. When every chunk
// is done the handler knows the body length, so errors and
// cancellation up to that point still answer their typed envelopes;
// then it writes Content-Length and the buffers in order. The bytes
// are those json.Encoder (SetEscapeHTML(false)) produced for the
// databaseJSON struct this replaces — the test oracle keeps that
// rendering and the differential suite compares byte for byte.

// liveBufCap sizes a fresh chunk buffer: a 1024-row chunk of a narrow
// relation encodes to about half of it. liveBufKeep caps what goes
// back to the pool, so one wide relation does not pin megabytes per
// pooled buffer forever.
const (
	liveBufCap  = 64 << 10
	liveBufKeep = 1 << 20
)

var liveBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, liveBufCap)
		return &b
	},
}

// liveChunk is one chunk's share of the response: `,[v,…]` per live
// tuple (the writer drops a relation's leading comma).
type liveChunk struct {
	rel  string
	buf  *[]byte
	live int
	rows int
	err  error
}

func releaseLiveChunks(chunks []liveChunk) {
	for _, c := range chunks {
		if cap(*c.buf) <= liveBufKeep {
			*c.buf = (*c.buf)[:0]
			liveBufPool.Put(c.buf)
		}
	}
}

// encodeLiveChunk renders one chunk on the worker that evaluated it.
func encodeLiveChunk(rel *db.RelationSchema, c engine.Chunk, live []db.Tuple) liveChunk {
	out := liveChunk{rel: c.Rel, buf: liveBufPool.Get().(*[]byte), live: len(live), rows: c.Rows}
	b := *out.buf
	for _, t := range live {
		b = append(b, ',')
		var bad int
		if b, bad = t.AppendJSON(b); bad >= 0 && out.err == nil {
			out.err = fmt.Errorf("relation %s attribute %s: float value %v has no JSON encoding", rel.Name, rel.Attrs[bad].Name, t[bad])
		}
	}
	*out.buf = b
	return out
}

// whatifStats accumulates the kernel's per-request measurements (see
// collectWhatifStats for the field meanings).
type whatifStats struct {
	requests, rowsEvaluated, rowsLive, respBytes, evalEncodeUs, writeUs, workers atomic.Int64
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
	start := time.Now()
	schema := e.Schema()
	chunks, err := engine.LiveChunks(req.Context(), e, val, workers, func(c engine.Chunk, live []db.Tuple) liveChunk {
		return encodeLiveChunk(schema.Relation(c.Rel), c, live)
	})
	if err != nil {
		writeContextError(w, err)
		return
	}
	defer releaseLiveChunks(chunks)
	evalEncode := time.Since(start)

	// Chunks arrive in schema order, one contiguous run per relation;
	// the body lists relations by sorted name.
	type relRun struct {
		schema *db.RelationSchema
		lo, hi int
	}
	runs := make([]relRun, 0, len(schema.Names()))
	rows, live, next := 0, 0, 0
	for _, name := range schema.Names() {
		run := relRun{schema: schema.Relation(name), lo: next}
		for ; next < len(chunks) && chunks[next].rel == name; next++ {
			c := &chunks[next]
			if c.err != nil {
				writeError(w, http.StatusInternalServerError, codeInternal, "encoding response: %v", c.err)
				return
			}
			rows += c.rows
			live += c.live
		}
		run.hi = next
		runs = append(runs, run)
	}
	slices.SortFunc(runs, func(a, b relRun) int { return strings.Compare(a.schema.Name, b.schema.Name) })

	// The glue between chunk buffers is appended to one small buffer
	// and sliced as it grows; a reallocation leaves earlier slices on
	// the old array, which nothing mutates.
	glue := make([]byte, 0, 512)
	parts := make([][]byte, 0, len(chunks)+len(runs)+1)
	size := 0
	cut := func(from int) {
		parts = append(parts, glue[from:])
		size += len(glue) - from
	}
	glue = append(glue, `{"relations":{`...)
	from := 0
	for i, run := range runs {
		if i > 0 {
			glue = append(glue, `]},`...)
		}
		glue = db.AppendJSONString(glue, run.schema.Name)
		glue = append(glue, `:{"attrs":[`...)
		for j, a := range run.schema.Attrs {
			if j > 0 {
				glue = append(glue, ',')
			}
			glue = db.AppendJSONString(glue, a.Name)
		}
		glue = append(glue, `],"tuples":[`...)
		cut(from)
		from = len(glue)
		first := true
		for _, c := range chunks[run.lo:run.hi] {
			b := *c.buf
			if len(b) == 0 {
				continue
			}
			if first {
				b, first = b[1:], false
			}
			parts = append(parts, b)
			size += len(b)
		}
	}
	if len(runs) > 0 {
		glue = append(glue, `]}`...)
	}
	glue = append(glue, `},"numTuples":`...)
	glue = strconv.AppendInt(glue, int64(live), 10)
	glue = append(glue, '}', '\n')
	cut(from)

	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(size))
	w.WriteHeader(http.StatusOK)
	writeStart := time.Now()
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			// The client is gone or the write deadline passed; net/http
			// closes a connection whose body fell short of Content-Length.
			break
		}
	}

	st := &s.whatif
	st.requests.Add(1)
	st.rowsEvaluated.Add(int64(rows))
	st.rowsLive.Add(int64(live))
	st.respBytes.Add(int64(size))
	st.evalEncodeUs.Add(evalEncode.Microseconds())
	st.writeUs.Add(time.Since(writeStart).Microseconds())
	st.workers.Add(int64(workers))
}

// collectWhatifStats reports the what-if read path's cumulative
// counters, updated once per answered /v1/db, /v1/whatif/deletion or
// /v1/whatif/abort request: requests served, rows evaluated and rows
// live among them, body bytes, microseconds in evaluate-and-encode and
// in writing the body, and the worker counts summed (divide by
// whatifRequests for the means).
func collectWhatifStats(s *Server, e engine.DB, out map[string]any) {
	for name, v := range s.whatif.snapshot() {
		out[name] = v
	}
}

func (st *whatifStats) snapshot() map[string]int64 {
	return map[string]int64{
		"whatifRequests":      st.requests.Load(),
		"whatifRowsEvaluated": st.rowsEvaluated.Load(),
		"whatifRowsLive":      st.rowsLive.Load(),
		"whatifRespBytes":     st.respBytes.Load(),
		"whatifEvalEncodeUs":  st.evalEncodeUs.Load(),
		"whatifWriteUs":       st.writeUs.Load(),
		"whatifWorkers":       st.workers.Load(),
	}
}
