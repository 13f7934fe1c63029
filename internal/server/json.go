package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/wal"
)

// jsonContentType is every JSON response's Content-Type header value,
// assigned rather than Set: Set allocates a one-element slice per
// response, and net/http never writes through header values.
var jsonContentType = []string{"application/json"}

// writeJSON renders v with a status code; encoding errors past the
// header are unrecoverable and ignored.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// Machine-readable error codes of the JSON error envelope. Every error
// response has the shape {"error":{"code":"...","message":"..."}}; the
// code is stable for clients to branch on, the message is for humans.
const (
	codeBadRequest       = "bad_request"
	codeUnknownRelation  = "unknown_relation"
	codeUnknownAttribute = "unknown_attribute"
	codeUnknownIndex     = "unknown_index"
	codeBadTuple         = "bad_tuple"
	codeApplyFailed      = "apply_failed"
	codeCanceled         = "canceled"
	codeInternal         = "internal"
	codeTimeout          = "timeout"
	codeReadOnly         = "read_only"
	codeNotPersistent    = "not_persistent"
	codeFollower         = "follower"
	codeSyncing          = "syncing"
	codeReplicaLagging   = "replica_lagging"
	codeCompacted        = "compacted"
	codeMethodNotAllowed = "method_not_allowed"
	codeUnknownRoute     = "unknown_route"
	codeBodyTooLarge     = "body_too_large"
	codeQueueFull        = "queue_full"
	codeOverloaded       = "overloaded"
	codeShedDeadline     = "shed_deadline"
)

// timeoutBody is the body writeContextError serves when the request
// deadline fired before anything was answered (the bytes
// http.TimeoutHandler served when routes still mounted on it); it must
// stay in sync with the envelope shape — it is written verbatim, not
// through writeError.
const timeoutBody = `{"error":{"code":"` + codeTimeout + `","message":"request timed out"}}`

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Applied, present only on partial batch failures, counts the
	// transactions durably applied before the error: txns[:applied]
	// must not be resubmitted, txns[applied:] may be.
	Applied *int `json:"applied,omitempty"`
}

type errorResponse struct {
	Error errorBody `json:"error"`
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: errorBody{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// writeContextError answers a request whose context ended before its
// first byte (see withDeadline): 503 with timeoutBody when the deadline
// fired, 503 canceled when the client went away.
func writeContextError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		w.Header()["Content-Type"] = jsonContentType
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, timeoutBody)
		return
	}
	writeError(w, http.StatusServiceUnavailable, codeCanceled, "%v", err)
}

// engineErrorStatus maps the engine's sentinel errors onto HTTP
// statuses and envelope codes: unknown relation / attribute / index →
// 404, malformed tuple → 400, a degraded persistent store → 503,
// the request deadline → 503 timeout, cancellation → 503 canceled,
// anything else from applying a log → 422.
func engineErrorStatus(err error) (int, string) {
	switch {
	case errors.Is(err, wal.ErrFollower):
		return http.StatusForbidden, codeFollower
	case errors.Is(err, wal.ErrReadOnly):
		return http.StatusServiceUnavailable, codeReadOnly
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, codeTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, codeCanceled
	case errors.Is(err, engine.ErrUnknownRelation):
		return http.StatusNotFound, codeUnknownRelation
	case errors.Is(err, engine.ErrUnknownAttribute):
		return http.StatusNotFound, codeUnknownAttribute
	case errors.Is(err, engine.ErrUnknownIndex):
		return http.StatusNotFound, codeUnknownIndex
	case errors.Is(err, engine.ErrBadTuple):
		return http.StatusBadRequest, codeBadTuple
	default:
		return http.StatusUnprocessableEntity, codeApplyFailed
	}
}

func writeEngineError(w http.ResponseWriter, err error) {
	status, code := engineErrorStatus(err)
	writeError(w, status, code, "%v", err)
}

// writeEngineErrorApplied is writeEngineError for partial batch
// failures: the envelope carries the durably-applied prefix length so
// the client knows where to resume.
func writeEngineErrorApplied(w http.ResponseWriter, err error, applied int) {
	status, code := engineErrorStatus(err)
	writeJSON(w, status, errorResponse{Error: errorBody{
		Code:    code,
		Message: fmt.Sprintf("%v", err),
		Applied: &applied,
	}})
}

// parseTuple converts a JSON value array into a typed tuple conforming
// to the relation schema: strings for string attributes, numbers for
// int (must be integral) and float attributes. Numeric strings are also
// accepted for convenience in curl sessions.
func parseTuple(rel *db.RelationSchema, raw []any) (db.Tuple, error) {
	if len(raw) != len(rel.Attrs) {
		return nil, fmt.Errorf("tuple has %d values, relation %s needs %d", len(raw), rel.Name, len(rel.Attrs))
	}
	t := make(db.Tuple, len(raw))
	for i, rv := range raw {
		v, err := rel.Attrs[i].ValueFromJSON(rv)
		if err != nil {
			return nil, err
		}
		t[i] = v
	}
	return t, nil
}

// readBody decodes a JSON request body into dst with the server's size
// cap. An oversized body surfaces as *http.MaxBytesError in the chain,
// which writeBodyError maps to 413 body_too_large.
func (s *Server) readBody(w http.ResponseWriter, req *http.Request, dst any) error {
	req.Body = http.MaxBytesReader(w, req.Body, s.maxBody)
	dec := json.NewDecoder(req.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// writeBodyError renders a body read/decode failure: a typed 413 when
// the size cap was the cause, 400 bad_request otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
			"request body exceeds the %d-byte limit", mbe.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
}
