package server

import (
	"expvar"
	"net/http"
	"time"
)

// metrics holds the per-endpoint counters in an expvar.Map that is not
// published to the process-global namespace by default, so multiple
// servers (e.g. in tests) do not collide; PublishExpvar on the Server
// exposes it under /debug/vars.
type metrics struct {
	m *expvar.Map
}

func newMetrics() *metrics {
	return &metrics{m: new(expvar.Map).Init()}
}

// statusRecorder captures the status code a handler writes, for the
// error counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the connection (write
// deadlines) through the recorder.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// instrument wraps a handler with request, error and latency counters
// keyed by the endpoint name.
func (mt *metrics) instrument(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(rec, req)
		mt.m.Add(name+".requests", 1)
		mt.m.Add(name+".latency_us", time.Since(start).Microseconds())
		if rec.status >= 400 {
			mt.m.Add(name+".errors", 1)
		}
	})
}

func (mt *metrics) serveHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(mt.m.String()))
}
