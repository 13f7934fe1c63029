package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/parser"
)

// ingestBufKeep caps both what a request's Content-Length may reserve
// up front and what goes back to ingestBufs: a larger body grows its
// buffer as its bytes arrive, and that buffer is left to the collector.
const ingestBufKeep = 1 << 20

// ingestBufs keeps the request bodies of four ingests a CPU: at most
// 4 × NumCPU × ingestBufKeep retained.
var ingestBufs = db.FreeList[*bytes.Buffer]{Max: 4 * runtime.NumCPU(), New: func() *bytes.Buffer { return new(bytes.Buffer) }}

// ingestStats accumulates the write path's per-request measurements
// (see collectIngestStats for the field meanings).
type ingestStats struct {
	requests, txns, bodyBytes, parseUs, applyUs atomic.Int64
}

// handleIngest parses the request body as a transaction log (SQL
// fragment by default, ?syntax=datalog for the paper's notation) and
// applies it. Read endpoints pin the MVCC horizon at entry and never
// block while a large log streams in; each batch publishes atomically
// when it commits. The response (and, on failure, at the request
// deadline or on client disconnection, the error envelope) reports how
// many transactions were durably applied — the caller may safely
// resubmit the rest.
//
// The body is read once into a recycled buffer reserved from
// Content-Length and scanned where it lies. The engine only borrows
// the transactions parsed from it (db.Transaction), so buffer and
// batch are recycled together once the response no longer needs them:
// labels and values do not point into either, datalog variable names
// point into the buffer.
func (s *Server) handleIngest(w http.ResponseWriter, req *http.Request) {
	var parse func(*db.Schema, []byte) (parser.Batch, error)
	syntax := req.URL.Query().Get("syntax")
	switch syntax {
	case "", "sql":
		parse = parser.ParseSQLBatch
	case "datalog":
		parse = parser.ParseDatalogBatch
	}
	buf := ingestBufs.Get()
	defer func() {
		if buf.Cap() <= ingestBufKeep+bytes.MinRead {
			buf.Reset()
			ingestBufs.Put(buf)
		}
	}()
	if n := min(req.ContentLength, s.maxBody, ingestBufKeep); n > 0 {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, req.Body, s.maxBody)); err != nil {
		writeBodyError(w, fmt.Errorf("reading log: %w", err))
		return
	}
	if parse == nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "unknown syntax %q", syntax)
		return
	}
	st := &s.ingest
	st.requests.Add(1)
	st.bodyBytes.Add(int64(buf.Len()))

	e := s.Engine()
	start := time.Now()
	batch, err := parse(e.Schema(), buf.Bytes())
	parsed := time.Now()
	st.parseUs.Add(parsed.Sub(start).Microseconds())
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "parsing log: %v", err)
		return
	}
	defer batch.Release() // before the buffer goes back
	txns := batch.Txns
	applied, err := e.ApplyBatch(req.Context(), txns)
	st.applyUs.Add(time.Since(parsed).Microseconds())
	st.txns.Add(int64(applied))
	if err != nil {
		if applied == 0 && errors.Is(err, context.DeadlineExceeded) {
			writeContextError(w, err)
			return
		}
		writeEngineErrorApplied(w, err, applied)
		return
	}
	// The body json.Encoder wrote for the map this replaces: keys in
	// sorted order, a trailing newline.
	body := make([]byte, 0, 96)
	body = append(body, `{"applied":`...)
	body = strconv.AppendInt(body, int64(applied), 10)
	body = append(body, `,"queries":`...)
	body = strconv.AppendInt(body, int64(db.CountQueries(txns)), 10)
	body = append(body, `,"transactions":`...)
	body = strconv.AppendInt(body, int64(len(txns)), 10)
	body = append(body, '}', '\n')
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// collectIngestStats reports the write path's cumulative counters,
// updated once per /v1/ingest request whose body arrived: requests,
// transactions durably applied, body bytes, and microseconds in the
// parser and in ApplyBatch (admission wait, WAL append, engine apply
// and any checkpoint the commit triggered) — "where did this commit
// spend its time" is the two means against the endpoint's latency_us.
func collectIngestStats(s *Server, e engine.DB, out map[string]any) {
	st := &s.ingest
	out["ingestRequests"] = st.requests.Load()
	out["ingestTxns"] = st.txns.Load()
	out["ingestBodyBytes"] = st.bodyBytes.Load()
	out["ingestParseUs"] = st.parseUs.Load()
	out["ingestApplyUs"] = st.applyUs.Load()
}
