package server

import (
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
	// Register everything before writing the status line so a bad spec
	// is a clean 4xx rather than a mid-stream error frame.
	acks := make([][]byte, 0, len(specs))
	for _, sp := range specs {
		ack, err := s.subs.Subscribe(conn, sp)
		if err != nil {
			if errors.Is(err, engine.ErrUnknownRelation) {
				writeError(w, http.StatusNotFound, codeUnknownRelation, "%v", err)
			} else {
				writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
			}
			return
		}
		acks = append(acks, ack)
	}

	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	// Frames arrive encoded, newline included: ND-JSON writes them as
	// they are, SSE wraps each in "data: " and a blank line.
	write := func(frame []byte) bool {
		if sse {
			if _, err := w.Write(sseData); err != nil {
				return false
			}
		}
		if _, err := w.Write(frame); err != nil {
			return false
		}
		if sse {
			if _, err := w.Write(sseEnd); err != nil {
				return false
			}
		}
		flusher.Flush()
		return true
	}
	for _, ack := range acks {
		if !write(ack) {
			return
		}
	}

	// The stream ends when the client goes away or DrainStreams cancels
	// it for shutdown; either way the client re-subscribes and receives
	// fresh acks, so ending the response is the whole cleanup.
	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()
	defer context.AfterFunc(s.drainCtx, cancel)()
	for {
		f, err := conn.Next(ctx)
		if err != nil {
			return
		}
		if !write(f) {
			s.metrics.m.Add("subscribe.drops", 1)
			return
		}
	}
}
