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
// keyed by the endpoint name. The two every request moves are resolved
// here, once; the error counter is looked up by name when a request
// fails, so the map lists it only for an endpoint that has failed.
func (mt *metrics) instrument(name string, h http.Handler) http.Handler {
	requests, latency := mt.counter(name+".requests"), mt.counter(name+".latency_us")
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(rec, req)
		requests.Add(1)
		latency.Add(time.Since(start).Microseconds())
		if rec.status >= 400 {
			mt.m.Add(name+".errors", 1)
		}
	})
}

// counter returns the map's counter of that name, entering it at zero
// if it is new.
func (mt *metrics) counter(key string) *expvar.Int {
	mt.m.Add(key, 0)
	return mt.m.Get(key).(*expvar.Int)
}

func (mt *metrics) serveHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(mt.m.String()))
}
