package server

import (
	"context"
	"expvar"
	"log"
	"net/http"
	"strings"
	"sync"
	"time"

	"hyperprov/internal/admission"
	"hyperprov/internal/engine"
	"hyperprov/internal/subscribe"
)

// maxBodyBytes caps request bodies (JSON, logs and snapshots alike).
const maxBodyBytes = 64 << 20

// DefaultTimeout bounds each request end to end unless WithTimeout
// overrides it.
const DefaultTimeout = 30 * time.Second

// Server serves one provenance engine over HTTP — any engine.DB (an
// Engine, or a persistent store or follower wrapping one) behind the
// same handlers. The zero value is not usable; construct with New.
type Server struct {
	// db is what New was given. mem is set when that is an in-memory
	// *engine.Engine: the server then serves it through a handle, and a
	// snapshot load is a Swap on it. A persistent store or follower
	// replaces its engine through a handle of its own.
	db  engine.DB
	mem *engine.Handle

	metrics *metrics
	timeout time.Duration
	handler http.Handler
	logf    func(format string, args ...any)

	// adm admits requests class by class (reads / expensive reads /
	// writes / streams) and sheds with typed 429/503 envelopes when a
	// class saturates. Defaults to unlimited; see WithAdmission.
	adm *admission.Controller
	// maxBody caps request bodies; see WithMaxBodyBytes.
	maxBody int64
	// whatif accumulates the what-if read path's counters (serveLive).
	whatif whatifStats
	// ingest accumulates the write path's counters (handleIngest).
	ingest ingestStats

	// subs maintains the live provenance subscriptions served at
	// /v1/subscribe, fed by the commit-event bus of the handle (or the
	// store) behind the server, so it follows every engine swap as a
	// CommitReset.
	subs *subscribe.Manager

	// drainCtx is canceled by DrainStreams to end the long-lived
	// replication and subscription stream responses, which would
	// otherwise hold http.Server.Shutdown for the whole grace period.
	drainCtx    context.Context
	drainCancel context.CancelFunc
	closeOnce   sync.Once
}

// Option configures a Server.
type Option func(*Server)

// WithTimeout bounds each request end to end (0 disables the limit).
func WithTimeout(d time.Duration) Option {
	return func(s *Server) { s.timeout = d }
}

// WithLogf sets the diagnostic logger (used for recovered panics).
// The default is log.Printf; tests pass t.Logf or a no-op.
func WithLogf(f func(format string, args ...any)) Option {
	return func(s *Server) { s.logf = f }
}

// New builds a server around the engine.
func New(eng engine.DB, opts ...Option) *Server {
	s := &Server{
		metrics: newMetrics(),
		timeout: DefaultTimeout,
		logf:    log.Printf,
		adm:     admission.NewController(admission.Unlimited()),
		maxBody: maxBodyBytes,
	}
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())
	if e, ok := eng.(*engine.Engine); ok {
		s.mem = new(engine.Handle)
		s.mem.Swap(e)
		s.subs = subscribe.NewManager(s.mem)
	} else {
		s.db = eng
		s.subs = subscribe.NewManager(eng)
	}
	for _, o := range opts {
		o(s)
	}
	// methodsByPath records every registered route so the fallback can
	// distinguish a wrong method on a known path (405 + Allow) from an
	// unknown path (404), both through the typed error envelope.
	methodsByPath := map[string][]string{}
	// One mux holds every route, so a request is resolved once.
	mux := http.NewServeMux()
	mount := func(pattern string, h http.Handler) {
		if method, path, ok := strings.Cut(pattern, " "); ok {
			methodsByPath[path] = append(methodsByPath[path], method)
		}
		mux.Handle(pattern, h)
	}
	// Every plain route is bounded by the request deadline (withDeadline:
	// the request context and the connection's write deadline — there is
	// no other mechanism, and no buffered copy of any response), with
	// panic recovery inside it so a panicking endpoint answers a typed
	// 500 rather than an empty reply.
	chain := func(h http.Handler) http.Handler { return s.withDeadline(s.recoverPanics(h)) }
	route := func(name, pattern string, h http.HandlerFunc) {
		mount(pattern, chain(s.metrics.instrument(name, h)))
	}
	// Route classification for admission: health and observability
	// endpoints mount bare (never shed — a load balancer probing an
	// overloaded node must still get an answer); cheap point reads,
	// materializing reads, and writes each draw from their own class so
	// saturation in one cannot starve another, and under overload the
	// expensive reads shed first.
	route("healthz", "GET /healthz", s.handleHealthz)
	route("readyz", "GET /readyz", s.handleReadyz)
	route("stats", "GET /v1/stats", s.handleStats)
	route("schema", "GET /v1/schema", s.admit(admission.ClassRead, s.handleSchema))
	route("annotation", "POST /v1/annotation", s.admit(admission.ClassRead, s.handleAnnotation))
	route("indexes_list", "GET /v1/indexes", s.admit(admission.ClassRead, s.handleIndexList))
	route("db", "GET /v1/db", s.admit(admission.ClassExpensive, s.handleDB))
	route("whatif_deletion", "POST /v1/whatif/deletion", s.admit(admission.ClassExpensive, s.handleDeletion))
	route("whatif_abort", "POST /v1/whatif/abort", s.admit(admission.ClassExpensive, s.handleAbort))
	route("snapshot_save", "GET /v1/snapshot", s.admit(admission.ClassExpensive, s.handleSnapshotSave))
	route("ingest", "POST /v1/ingest", s.admit(admission.ClassWrite, s.handleIngest))
	route("indexes_build", "POST /v1/indexes", s.admit(admission.ClassWrite, s.handleIndexBuild))
	route("indexes_drop", "DELETE /v1/indexes", s.admit(admission.ClassWrite, s.handleIndexDrop))
	route("snapshot_load", "POST /v1/snapshot", s.admit(admission.ClassWrite, s.handleSnapshotLoad))
	route("checkpoint", "POST /v1/checkpoint", s.admit(admission.ClassWrite, s.handleCheckpoint))
	mount("GET /v1/metrics", chain(http.HandlerFunc(s.metrics.serveHTTP)))
	mount("GET /debug/vars", chain(expvar.Handler()))
	// The replication and subscription streams are long-lived flushed
	// responses, so they mount outside any request timeout (which would
	// kill the stream at the deadline). They get their own panic
	// recovery and a plain request counter; the statusRecorder wrapper
	// is skipped because it hides http.Flusher.
	// Streams admit under ClassStream and hold their slot for the
	// connection's lifetime — past the cap a reconnect storm sheds
	// immediately (no queue) instead of piling up handshakes.
	mount("GET /v1/replication/stream", s.recoverPanics(s.admit(admission.ClassStream, func(w http.ResponseWriter, req *http.Request) {
		s.metrics.m.Add("replication_stream.requests", 1)
		s.handleReplicationStream(w, req)
	})))
	subscribeHandler := s.recoverPanics(s.admit(admission.ClassStream, func(w http.ResponseWriter, req *http.Request) {
		s.metrics.m.Add("subscribe.requests", 1)
		s.handleSubscribe(w, req)
	}))
	mount("GET /v1/subscribe", subscribeHandler)
	mount("POST /v1/subscribe", subscribeHandler)
	// The fallback takes what no route claimed and answers a typed
	// envelope — 405 with an Allow header when the path exists under
	// other methods, 404 otherwise (Go's mux would answer both as bare
	// text).
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if allow, known := methodsByPath[req.URL.Path]; known {
			w.Header().Set("Allow", strings.Join(allow, ", "))
			writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "method %s is not allowed for %s", req.Method, req.URL.Path)
			return
		}
		writeError(w, http.StatusNotFound, codeUnknownRoute, "unknown route %s", req.URL.Path)
	})
	s.handler = mux
	return s
}

// errorReplyWindow is how long past the request deadline a connection
// may take to accept what the handler answers when the deadline fires:
// an envelope of a hundred bytes, or the tail of a body.
const errorReplyWindow = time.Second

// withDeadline bounds a handler by the request timeout. The request
// context expires at the deadline: a request that arrives with it
// already gone is answered here, and a handler that can outlast it —
// admission wait, ApplyBatch between chunks, the materializing reads
// before their first byte, the snapshot stream at every write — checks
// it while it can still answer and serves writeContextError (ingest:
// with the applied count). The connection's write deadline, one
// errorReplyWindow later, cuts a body a stalled client stopped reading
// (net/http clears it again after the response).
func (s *Server) withDeadline(h http.Handler) http.Handler {
	if s.timeout <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ctx, cancel := context.WithTimeout(req.Context(), s.timeout)
		defer cancel()
		if err := ctx.Err(); err != nil {
			writeContextError(w, err)
			return
		}
		// Writers with no connection underneath (httptest recorders, a
		// handler driven in-process) answer http.ErrNotSupported: there
		// is no write to bound, and the context deadline still holds.
		_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(s.timeout + errorReplyWindow))
		h.ServeHTTP(w, req.WithContext(ctx))
	})
}

// Handler returns the root handler (routes wrapped with metrics and the
// request timeout).
func (s *Server) Handler() http.Handler { return s.handler }

// DrainStreams ends every replication stream this server is feeding
// (and cuts short any that arrive afterwards), sending followers back
// to redialing. Call it before
// http.Server.Shutdown: stream responses are infinite, so a graceful
// shutdown would otherwise block on them until the grace period
// expires. Followers treat the drop exactly like a leader restart and
// reconnect on their own once the leader is back.
func (s *Server) DrainStreams() { s.drainCancel() }

// Close releases the server's background resources: it drains the
// stream responses and shuts down the subscription manager (stopping
// its dispatcher and uninstalling the engine's commit hook). The
// HTTP handler keeps answering plain requests afterwards; call this
// during process shutdown, after (or instead of) DrainStreams.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.drainCancel()
		s.subs.Close()
	})
}

// Subscriptions exposes the live-subscription manager, for process
// embedders that want programmatic subscriptions next to the HTTP
// surface.
func (s *Server) Subscriptions() *subscribe.Manager { return s.subs }

// Engine returns the currently served engine. Lock-free: callers that
// need a consistent engine across several calls capture the result once
// (handlers do, at entry) — a concurrent snapshot load then never splits
// one request across two engines, and a slow reader pinned on the old
// engine's MVCC horizon keeps streaming from it without blocking the
// swap (or being blocked by it).
func (s *Server) Engine() engine.DB {
	if s.mem != nil {
		return s.mem.Engine()
	}
	return s.db
}

// EngineGeneration reports how many engines this server has served: 1
// for the engine it was constructed with, +1 per snapshot load. Reads
// that captured an earlier generation keep answering from it.
func (s *Server) EngineGeneration() uint64 {
	if s.mem != nil {
		return s.mem.Swaps()
	}
	return 1
}

// PublishExpvar publishes the counters into the process-global expvar
// namespace (served at GET /debug/vars) under the given name. Publish
// panics on duplicate names, so call this at most once per process —
// the serve command does; tests do not.
func (s *Server) PublishExpvar(name string) {
	expvar.Publish(name, s.metrics.m)
}
