package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"time"

	"hyperprov/internal/admission"
	"hyperprov/internal/core"
	"hyperprov/internal/engine"
	"hyperprov/internal/provstore"
	"hyperprov/internal/upstruct"
	"hyperprov/internal/wal"
)

func (s *Server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleReadyz is the readiness probe, now a three-state health
// machine (ok → degraded → overloaded):
//
//   - overloaded — the admission controller shed for capacity within
//     its window: 503 overloaded with Retry-After, drain this node.
//   - degraded — queue pressure, a read-only persistent store, or a
//     follower that has not finished its initial sync. The WAL and
//     follower causes keep their historical responses (503 read_only /
//     503 syncing) so balancer configs and clients keep working; pure
//     queue pressure answers 200 with state "degraded" (the node still
//     serves, it is just busy).
//   - ok — 200.
//
// Reads keep answering on the other endpoints in every state, so load
// balancers can drain writes without killing the process.
func (s *Server) handleReadyz(w http.ResponseWriter, req *http.Request) {
	e := s.Engine()
	if s.adm.State() == admission.StateOverloaded {
		w.Header().Set("Retry-After", retryAfterSeconds(s.adm.Window()))
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ok": false, "state": admission.StateOverloaded.String(),
			"error": errorBody{Code: codeOverloaded, Message: "server is shedding load"},
		})
		return
	}
	state := s.health(e).String()
	switch e := e.(type) {
	case *wal.Store:
		if e.ReadOnly() {
			writeError(w, http.StatusServiceUnavailable, codeReadOnly, "persistent store is read-only: %v", e.Stats().ReadOnlyCause)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "persistent": true, "state": state})
	case *wal.Follower:
		rs := e.ReplicaStats()
		if !rs.Ready {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"ok": false, "follower": true, "state": state,
				"error": errorBody{Code: codeSyncing, Message: "follower has not finished its initial sync"},
				"lag":   map[string]uint64{"records": rs.LagRecords},
			})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"ok": true, "persistent": true, "follower": true, "state": state,
			"lag": map[string]uint64{"records": rs.LagRecords},
		})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "persistent": false, "state": state})
	}
}

// handleReplicationStream is the leader's replication endpoint: it
// streams the follower handshake (hello, optionally a checkpoint
// bootstrap) followed by the live CRC-framed record feed, resuming at
// ?from=N. The response flushes after every frame and lives until the
// follower disconnects; it is mounted outside the request timeout.
func (s *Server) handleReplicationStream(w http.ResponseWriter, req *http.Request) {
	st, ok := s.Engine().(*wal.Store)
	if !ok {
		writeError(w, http.StatusConflict, codeNotPersistent, "replication needs a persistent leader store")
		return
	}
	from, _, err := uintQuery(req, "from", "an LSN")
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	// The stream runs until the follower disconnects or DrainStreams
	// cancels it for shutdown; either way the follower redials and
	// resumes, so errors here just end the response.
	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()
	defer context.AfterFunc(s.drainCtx, cancel)()
	if err := st.ServeStream(ctx, w, from); err != nil {
		s.metrics.m.Add("replication_stream.drops", 1)
	}
}

// handleCheckpoint forces a checkpoint of the persistent store: the
// current engine state is written as a snapshot and fully-covered WAL
// segments are pruned. Serving an in-memory engine answers 409
// not_persistent; a degraded store answers 503 read_only.
func (s *Server) handleCheckpoint(w http.ResponseWriter, req *http.Request) {
	if _, ok := s.Engine().(*wal.Follower); ok {
		writeError(w, http.StatusForbidden, codeFollower, "server is a replication follower; checkpoint the leader")
		return
	}
	st, ok := s.Engine().(*wal.Store)
	if !ok {
		writeError(w, http.StatusConflict, codeNotPersistent, "server is not running on a persistent store")
		return
	}
	if err := st.Checkpoint(); err != nil {
		writeEngineError(w, err)
		return
	}
	stats := st.Stats()
	writeJSON(w, http.StatusOK, map[string]any{"lsn": stats.LSN, "checkpointLSN": stats.CheckpointLSN})
}

type attrJSON struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

type relationSchemaJSON struct {
	Name  string     `json:"name"`
	Attrs []attrJSON `json:"attrs"`
}

func (s *Server) handleSchema(w http.ResponseWriter, req *http.Request) {
	e := s.Engine()
	schema := e.Schema()
	rels := make([]relationSchemaJSON, 0, len(schema.Names()))
	for _, name := range schema.Names() {
		rel := schema.Relation(name)
		rj := relationSchemaJSON{Name: name}
		for _, a := range rel.Attrs {
			rj.Attrs = append(rj.Attrs, attrJSON{Name: a.Name, Kind: a.Kind.String()})
		}
		rels = append(rels, rj)
	}
	writeJSON(w, http.StatusOK, map[string]any{"mode": e.Mode().String(), "relations": rels})
}

// handleIndexList reports every secondary index with its posting-list
// volume, plus the planner's cumulative counters.
func (s *Server) handleIndexList(w http.ResponseWriter, req *http.Request) {
	e := s.Engine()
	infos := e.IndexStats()
	if infos == nil {
		infos = []engine.IndexInfo{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"indexes": infos,
		"planner": e.PlannerStats(),
	})
}

type indexRequest struct {
	Rel  string `json:"rel"`
	Attr string `json:"attr"`
}

// handleIndexBuild creates a secondary index on {rel, attr}. Building
// an index that already exists is a no-op success; unknown relations
// and attributes answer 404 through the error envelope.
func (s *Server) handleIndexBuild(w http.ResponseWriter, req *http.Request) {
	var ir indexRequest
	if err := s.readBody(w, req, &ir); err != nil {
		writeBodyError(w, err)
		return
	}
	if ir.Rel == "" || ir.Attr == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "need rel and attr")
		return
	}
	e := s.Engine()
	if err := e.BuildIndex(ir.Rel, ir.Attr); err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"indexes": e.IndexStats()})
}

// handleIndexDrop removes the index named by ?rel=&attr=; a missing
// index answers 404 with code unknown_index.
func (s *Server) handleIndexDrop(w http.ResponseWriter, req *http.Request) {
	rel := req.URL.Query().Get("rel")
	attr := req.URL.Query().Get("attr")
	if rel == "" || attr == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "need rel and attr query parameters")
		return
	}
	if err := s.Engine().DropIndex(rel, attr); err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"dropped": true})
}

// minEpochWait bounds how long a ?min_epoch= fenced read blocks for the
// horizon to catch up before answering 503 replica_lagging. Long enough
// to absorb normal replication lag, short enough that a stalled replica
// fails fast.
const minEpochWait = time.Second

// asOfReader resolves the optional ?as_of= query parameter (an epoch
// number, as reported by mvccHorizonEpoch in /v1/stats) to the reader
// the request runs against: the live engine when absent, an MVCC view
// pinned at the end of that epoch otherwise — lock-free, sharing the
// engine's version chains. Epochs beyond the committed horizon answer
// 400, epochs below the restore epoch (states a checkpoint or snapshot
// load compacted away) 410; ok=false means the error has been written.
//
// ?min_epoch=N fences stale reads: the request proceeds only once the
// serving engine's committed horizon covers epoch N, waiting up to
// minEpochWait and then answering 503 replica_lagging. A logged record's
// epoch is its LSN + 1 on a leader and its followers alike, so a client
// that wrote through the leader passes its mvccHorizonEpoch here and
// never reads a replica state older than its own write.
func (s *Server) asOfReader(w http.ResponseWriter, req *http.Request) (engine.Reader, bool) {
	e := s.Engine()
	if n, present, err := uintQuery(req, "min_epoch", "an epoch number"); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return nil, false
	} else if present {
		if e.Horizon() < n {
			ctx, cancel := context.WithTimeout(req.Context(), minEpochWait)
			_ = e.WaitHorizon(ctx, n)
			cancel()
		}
		if h := e.Horizon(); h < n {
			writeError(w, http.StatusServiceUnavailable, codeReplicaLagging, "committed horizon epoch %d has not reached min_epoch %d", h, n)
			return nil, false
		}
	}
	n, present, err := uintQuery(req, "as_of", "an epoch number")
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return nil, false
	}
	if !present {
		return e, true
	}
	if h := e.Horizon(); n > h {
		writeError(w, http.StatusBadRequest, codeBadRequest, "as_of epoch %d is beyond the committed horizon epoch %d", n, h)
		return nil, false
	}
	if r := e.MVCCStats().RestoreEpoch; n < r {
		writeError(w, http.StatusGone, codeCompacted, "as_of epoch %d is below the restore epoch %d", n, r)
		return nil, false
	}
	return e.At(n), true
}

type annotationRequest struct {
	Rel      string `json:"rel"`
	Tuple    []any  `json:"tuple"`
	Minimize bool   `json:"minimize"`
	Explain  bool   `json:"explain"`
}

type dependenciesJSON struct {
	Tuples       []string `json:"tuples"`
	Transactions []string `json:"transactions"`
}

type annotationResponse struct {
	Found        bool             `json:"found"`
	Live         bool             `json:"live,omitempty"`
	Annotation   string           `json:"annotation,omitempty"`
	Size         int64            `json:"size,omitempty"`
	Explain      string           `json:"explain,omitempty"`
	Dependencies dependenciesJSON `json:"dependencies"`
}

// handleAnnotation answers "why is this tuple (not) in the database?":
// the stored provenance expression, its liveness under the all-true
// valuation, its input-tuple and transaction dependencies, and
// optionally the Explain rendering. ?as_of=N answers against the
// database as of epoch N — "why was this tuple here then?".
func (s *Server) handleAnnotation(w http.ResponseWriter, req *http.Request) {
	var ar annotationRequest
	if err := s.readBody(w, req, &ar); err != nil {
		writeBodyError(w, err)
		return
	}
	e, ok := s.asOfReader(w, req)
	if !ok {
		return
	}
	rel := e.Schema().Relation(ar.Rel)
	if rel == nil {
		writeError(w, http.StatusNotFound, codeUnknownRelation, "unknown relation %q", ar.Rel)
		return
	}
	t, err := parseTuple(rel, ar.Tuple)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadTuple, "%v", err)
		return
	}
	ann := e.Annotation(ar.Rel, t)
	if ann == nil {
		writeJSON(w, http.StatusOK, annotationResponse{Found: false})
		return
	}
	if ar.Minimize {
		ann = core.Minimize(ann)
	}
	resp := annotationResponse{
		Found:      true,
		Live:       ann.Live(),
		Annotation: ann.String(),
		Size:       ann.Size(),
	}
	if ar.Explain {
		resp.Explain = core.ExplainString(ann)
	}
	tuples, txns := engine.Dependencies(e, ar.Rel, t)
	resp.Dependencies = dependenciesJSON{Tuples: annotNames(tuples), Transactions: annotNames(txns)}
	writeJSON(w, http.StatusOK, resp)
}

func annotNames(as []core.Annot) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}

// handleDB serves the live database — the all-true valuation — with
// parallel evaluation. ?as_of=N serves the database as of epoch N.
func (s *Server) handleDB(w http.ResponseWriter, req *http.Request) {
	e, ok := s.asOfReader(w, req)
	if !ok {
		return
	}
	s.serveLive(w, req, e, upstruct.Dead())
}

type deletionRequest struct {
	Tuples []string `json:"tuples"`
}

// handleDeletion answers the Section 4.1 deletion-propagation what-if:
// the database had the named input-tuple annotations never existed,
// computed by valuation without re-running the log. ?as_of=N asks the
// hypothetical against the database as of epoch N.
func (s *Server) handleDeletion(w http.ResponseWriter, req *http.Request) {
	var dr deletionRequest
	if err := s.readBody(w, req, &dr); err != nil {
		writeBodyError(w, err)
		return
	}
	s.serveWhatIf(w, req, dr.Tuples, "tuple annotations", core.TupleAnnot)
}

type abortRequest struct {
	Labels []string `json:"labels"`
}

// handleAbort answers the transaction-abortion what-if: the database
// had the labelled transactions been aborted. ?as_of=N asks the
// hypothetical against the database as of epoch N.
func (s *Server) handleAbort(w http.ResponseWriter, req *http.Request) {
	var ar abortRequest
	if err := s.readBody(w, req, &ar); err != nil {
		writeBodyError(w, err)
		return
	}
	s.serveWhatIf(w, req, ar.Labels, "transaction labels", core.QueryAnnot)
}

// serveWhatIf serves the database under the valuation that kills the
// named annotations — what both what-ifs are.
func (s *Server) serveWhatIf(w http.ResponseWriter, req *http.Request, names []string, what string, annot func(string) core.Annot) {
	if len(names) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "no %s given", what)
		return
	}
	e, ok := s.asOfReader(w, req)
	if !ok {
		return
	}
	dead := make([]core.Annot, len(names))
	for i, name := range names {
		dead[i] = annot(name)
	}
	s.serveLive(w, req, e, upstruct.Dead(dead...))
}

// handleSnapshotSave streams the annotated database in the provstore
// binary format — one consistent MVCC cut pinned at entry, with
// deterministic bytes. ?as_of=N streams the database as it stood at
// the end of epoch N.
func (s *Server) handleSnapshotSave(w http.ResponseWriter, req *http.Request) {
	e, ok := s.asOfReader(w, req)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	cw := &ctxWriter{ctx: req.Context(), w: w}
	if err := provstore.SaveSnapshot(cw, e); err != nil {
		if cw.n == 0 && req.Context().Err() != nil {
			// Nothing has left yet (the stream goes straight to the
			// connection, see withDeadline), so the request can still be
			// answered.
			writeContextError(w, req.Context().Err())
			return
		}
		// The 200 header and part of the binary body may already be on
		// the wire, so a JSON error envelope appended here would corrupt
		// the download into something that half-parses. Abort the
		// connection instead: the client's load fails on the truncated
		// stream.
		s.metrics.m.Add("snapshot_save.aborts", 1)
		panic(http.ErrAbortHandler)
	}
}

// ctxWriter stops a streamed response at the first write after the
// request context ended, and counts the bytes that got out before.
type ctxWriter struct {
	ctx context.Context
	w   io.Writer
	n   int64
}

func (c *ctxWriter) Write(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// ctxReader propagates request-context cancellation into a blocking
// body read, so a disconnected client stops a snapshot load promptly
// instead of after the next short read.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}

// limitReader records whether an http.MaxBytesReader underneath it hit
// its cap, for callers whose downstream decoder hides the error chain.
type limitReader struct {
	r   io.Reader
	hit bool
}

func (l *limitReader) Read(p []byte) (int, error) {
	n, err := l.r.Read(p)
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		l.hit = true
	}
	return n, err
}

// handleSnapshotLoad restores a snapshot and atomically swaps it in as
// the served engine; in-flight requests finish against the old one. The
// new engine takes the settings of the one it replaces (index advisor,
// matching, axioms).
func (s *Server) handleSnapshotLoad(w http.ResponseWriter, req *http.Request) {
	if _, ok := s.db.(*wal.Follower); ok {
		// The desync hazard below, plus the apply loop would keep writing
		// to the store the swap just abandoned.
		writeError(w, http.StatusForbidden, codeFollower, "server is a replication follower; its state comes from the leader")
		return
	}
	if s.mem == nil {
		// Swapping an in-memory engine over a persistent store would
		// silently fork the served state from the WAL on disk.
		writeError(w, http.StatusConflict, codeNotPersistent, "server is running on a persistent store; snapshot load would desync it from the log")
		return
	}
	// The snapshot decoder wraps reader errors in its own context, so a
	// limit hit is recorded by the tracking reader rather than recovered
	// from the error chain.
	lr := &limitReader{r: http.MaxBytesReader(w, req.Body, s.maxBody)}
	e, err := provstore.LoadSnapshot(ctxReader{ctx: req.Context(), r: lr}, s.mem.Engine().Options()...)
	if err != nil {
		if lr.hit {
			writeError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
				"snapshot exceeds the %d-byte limit", s.maxBody)
			return
		}
		if req.Context().Err() != nil {
			writeError(w, http.StatusServiceUnavailable, codeCanceled, "loading snapshot: %v", err)
			return
		}
		writeError(w, http.StatusBadRequest, codeBadRequest, "loading snapshot: %v", err)
		return
	}
	s.mem.Swap(e)
	writeJSON(w, http.StatusOK, map[string]any{"rows": e.NumRows(), "mode": e.Mode().String()})
}
