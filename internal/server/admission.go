package server

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"hyperprov/internal/admission"
	"hyperprov/internal/engine"
	"hyperprov/internal/wal"
)

// WithAdmission bounds per-class request concurrency (see
// admission.Config). The default is admission.Unlimited() — pure
// accounting, no behavioral change — so load shedding is strictly
// opt-in; the serve command opts in via flags.
func WithAdmission(cfg admission.Config) Option {
	return func(s *Server) { s.adm = admission.NewController(cfg) }
}

// WithMaxBodyBytes caps request bodies (ingest logs, snapshot uploads,
// subscription specs alike). The default is 64 MiB; tests shrink it to
// exercise the 413 path.
func WithMaxBodyBytes(n int64) Option {
	return func(s *Server) { s.maxBody = n }
}

// Admission exposes the controller, for the serve command's shutdown
// reporting and for tests asserting shed counters.
func (s *Server) Admission() *admission.Controller { return s.adm }

// admit wraps a handler with class-based admission: the request holds
// one in-flight slot in class for its whole lifetime (for streams,
// the connection's lifetime), and a shed answers the typed envelope
// with a Retry-After hint instead of running the handler. Health
// endpoints are mounted without this wrapper — they are never shed.
func (s *Server) admit(class admission.Class, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		release, err := s.adm.Admit(req.Context(), class)
		if err != nil {
			writeShed(w, err)
			return
		}
		defer release()
		h(w, req)
	}
}

// writeShed renders an admission failure: 429 queue_full when the
// class's wait queue was full, 503 otherwise (overload shedding or a
// deadline that could not be met), always with a Retry-After header.
func writeShed(w http.ResponseWriter, err error) {
	var shed *admission.ShedError
	if !errors.As(err, &shed) {
		writeError(w, http.StatusInternalServerError, codeInternal, "%v", err)
		return
	}
	w.Header().Set("Retry-After", retryAfterSeconds(shed.RetryAfter))
	switch shed.Reason {
	case admission.ReasonQueueFull:
		writeError(w, http.StatusTooManyRequests, codeQueueFull,
			"%s request shed: the class is at its concurrency limit and its queue is full", shed.Class)
	case admission.ReasonOverload:
		writeError(w, http.StatusServiceUnavailable, codeOverloaded,
			"%s request shed: server is overloaded", shed.Class)
	default:
		writeError(w, http.StatusServiceUnavailable, codeShedDeadline,
			"%s request shed: could not be admitted within its deadline", shed.Class)
	}
}

// retryAfterSeconds renders a Retry-After hint in whole seconds,
// rounding up with a 1s floor (Retry-After: 0 reads as "retry now").
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// health folds the external degradation signals into the admission
// controller's own state: a read-only persistent store or a follower
// that is still syncing marks the node degraded even when admission
// itself is keeping up. Overload always dominates.
func (s *Server) health(e engine.DB) admission.State {
	st := s.adm.State()
	if st == admission.StateOverloaded {
		return st
	}
	switch x := e.(type) {
	case *wal.Store:
		if x.ReadOnly() {
			return admission.StateDegraded
		}
	case *wal.Follower:
		if !x.ReplicaStats().Ready {
			return admission.StateDegraded
		}
	}
	return st
}
