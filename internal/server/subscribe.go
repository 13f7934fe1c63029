package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"hyperprov/internal/engine"
	"hyperprov/internal/subscribe"
)

// subscribeRequest is the POST /v1/subscribe body: the subscriptions
// to register up front, and an optional per-connection frame buffer
// (how many undelivered frames the server queues before dropping and
// scheduling a resync; 0 selects the default).
type subscribeRequest struct {
	Subscriptions []subscribe.Spec `json:"subscriptions"`
	Buffer        int              `json:"buffer,omitempty"`
}

// An SSE event is "data: " + frame (which ends its line) + a blank line.
var sseData, sseEnd = []byte("data: "), []byte("\n")

// handleSubscribe is the streaming subscription endpoint, mounted
// outside the request timeout (the response lives until the client
// disconnects or DrainStreams fires):
//
//	POST /v1/subscribe   body {"subscriptions":[spec...]}  → ND-JSON frames
//	GET  /v1/subscribe?spec={json}&spec={json}             → SSE frames
//
// Each registered subscription is acknowledged with an "ack" frame
// carrying its initial state; afterwards every committed transaction
// that moves a subscription produces a "delta" frame, and a connection
// that falls behind receives a "resync" snapshot instead of blocking
// the write path (see subscribe.Frame for the full protocol).
func (s *Server) handleSubscribe(w http.ResponseWriter, req *http.Request) {
	sse := req.Method == http.MethodGet
	var specs []subscribe.Spec
	var buffer int
	if sse {
		for _, raw := range req.URL.Query()["spec"] {
			var sp subscribe.Spec
			if err := json.Unmarshal([]byte(raw), &sp); err != nil {
				writeError(w, http.StatusBadRequest, codeBadRequest, "bad spec parameter: %v", err)
				return
			}
			specs = append(specs, sp)
		}
		n, _, err := intQuery(req, "buffer", "an integer")
		if err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
			return
		}
		buffer = n
	} else {
		var sr subscribeRequest
		if err := s.readBody(w, req, &sr); err != nil {
			writeBodyError(w, err)
			return
		}
		specs = sr.Subscriptions
		buffer = sr.Buffer
	}
	if buffer > subscribe.MaxConnBuffer {
		writeError(w, http.StatusBadRequest, codeBadRequest, "buffer %d exceeds the maximum of %d frames", buffer, subscribe.MaxConnBuffer)
		return
	}
	if len(specs) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "no subscriptions given")
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError, codeInternal, "response writer cannot stream")
		return
	}

	conn := s.subs.Attach(buffer)
	if conn == nil {
		writeError(w, http.StatusServiceUnavailable, codeCanceled, "server is shutting down")
		return
	}
	defer conn.Close()
	// A bad spec is a clean 4xx rather than a mid-stream error frame.
	if err := s.subs.Validate(specs); err != nil {
		writeSubscribeError(w, err)
		return
	}
	// Each ack streams before the next subscription is registered. The
	// status line goes out with the first ack's first byte: until then a
	// failure is an envelope; after it an unframeable ack is an error
	// frame and the stream goes on.
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	out := &frameWriter{w: w, flusher: flusher, sse: sse}
	for _, sp := range specs {
		err := s.subs.SubscribeTo(conn, sp, out)
		var unframeable *subscribe.UnframeableError
		if err != nil && out.writes == 0 {
			writeSubscribeError(w, err)
			return
		} else if errors.As(err, &unframeable) {
			_, err = out.Write(unframeable.Frame)
		}
		if err != nil { // the manager closed, or the client went away
			return
		}
	}

	// The stream ends when the client goes away or DrainStreams cancels
	// it for shutdown; either way the client re-subscribes and receives
	// fresh acks, so ending the response is the whole cleanup.
	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()
	defer context.AfterFunc(s.drainCtx, cancel)()
	for conn.NextTo(ctx, out) == nil {
	}
	if out.err != nil {
		s.metrics.m.Add("subscribe.drops", 1)
	}
}

// writeSubscribeError answers a subscription refused before the stream
// began; ErrClosed means the server is shutting down.
func writeSubscribeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, engine.ErrUnknownRelation):
		writeError(w, http.StatusNotFound, codeUnknownRelation, "%v", err)
	case errors.Is(err, subscribe.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, codeCanceled, "server is shutting down")
	default:
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
	}
}

// frameWriter is the stream's sink: encoded frames, newline included,
// arrive whole or a window at a time and are flushed as they come.
// ND-JSON writes them as they are; SSE wraps each in "data: " and a
// blank line (a frame's one raw newline is its last byte).
type frameWriter struct {
	w         http.ResponseWriter
	flusher   http.Flusher
	sse, open bool // open: an SSE frame is under way
	writes    int
	err       error
}

func (fw *frameWriter) Write(p []byte) (int, error) {
	if fw.sse && !fw.open {
		fw.write(sseData)
	}
	fw.open = !bytes.HasSuffix(p, sseEnd)
	fw.write(p)
	if fw.sse && !fw.open {
		fw.write(sseEnd)
	}
	fw.flusher.Flush()
	return len(p), fw.err
}

// write passes p on unless an earlier write failed.
func (fw *frameWriter) write(p []byte) {
	if fw.err == nil {
		fw.writes++
		_, fw.err = fw.w.Write(p)
	}
}
