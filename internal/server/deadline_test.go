package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hyperprov/internal/engine"
)

// directRoutes are the materializing reads mounted on the unbuffered
// chain (withDeadline instead of http.TimeoutHandler).
var directRoutes = []struct{ method, path, body string }{
	{"GET", "/v1/db", ""},
	{"POST", "/v1/whatif/deletion", `{"tuples":["p3"]}`},
	{"POST", "/v1/whatif/abort", `{"labels":["p"]}`},
	{"GET", "/v1/snapshot", ""},
}

// TestDirectRoutesDeadlineBeforeFirstByte: a request deadline that
// fires before the response started still answers 503 with the
// verbatim timeout envelope, as http.TimeoutHandler does on the
// buffered routes — over a real connection, and in-process on a
// recorder, where SetWriteDeadline answers http.ErrNotSupported and
// that must not surface.
func TestDirectRoutesDeadlineBeforeFirstByte(t *testing.T) {
	srv := New(figure1Engine(t, engine.ModeNormalForm), WithTimeout(time.Nanosecond), WithLogf(t.Logf))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, r := range directRoutes {
		req, err := http.NewRequest(r.method, ts.URL+r.path, strings.NewReader(r.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", r.method, r.path, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || string(raw) != timeoutBody {
			t.Errorf("%s %s over HTTP: %d %q, want 503 %q", r.method, r.path, resp.StatusCode, raw, timeoutBody)
		}

		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(r.method, r.path, strings.NewReader(r.body)))
		if rec.Code != http.StatusServiceUnavailable || rec.Body.String() != timeoutBody {
			t.Errorf("%s %s on a recorder: %d %q, want 503 %q", r.method, r.path, rec.Code, rec.Body, timeoutBody)
		}
	}
	if got := srv.metrics.m.Get("snapshot_save.aborts"); got != nil {
		t.Errorf("a snapshot that timed out before its first byte counted as an abort (%v)", got)
	}
}

// TestDirectRoutesServeWithinDeadline: with a deadline that does not
// fire, a recorder (no connection, no write deadline to set) gets the
// full 200 response.
func TestDirectRoutesServeWithinDeadline(t *testing.T) {
	srv := New(figure1Engine(t, engine.ModeNormalForm), WithLogf(t.Logf))
	defer srv.Close()
	for _, r := range directRoutes {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(r.method, r.path, strings.NewReader(r.body)))
		if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
			t.Errorf("%s %s on a recorder: %d with %d bytes, want a 200 body", r.method, r.path, rec.Code, rec.Body.Len())
		}
	}
}

// TestDirectRoutesCanceled: a client that went away before the first
// byte gets (would get) the 503 canceled envelope, not the timeout one.
func TestDirectRoutesCanceled(t *testing.T) {
	srv := New(figure1Engine(t, engine.ModeNormalForm), WithLogf(t.Logf))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range directRoutes {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(r.method, r.path, strings.NewReader(r.body)).WithContext(ctx))
		if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), `"code":"`+codeCanceled+`"`) {
			t.Errorf("%s %s under a canceled context: %d %q, want 503 %s", r.method, r.path, rec.Code, rec.Body, codeCanceled)
		}
	}
}

// TestStatusRecorderUnwraps: http.ResponseController reaches the
// connection through the metrics wrapper.
func TestStatusRecorderUnwraps(t *testing.T) {
	srv := New(figure1Engine(t, engine.ModeNormalForm), WithLogf(t.Logf))
	defer srv.Close()
	var deadlineErr error
	ts := httptest.NewServer(srv.metrics.instrument("probe", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		deadlineErr = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(time.Minute))
	})))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if deadlineErr != nil {
		t.Fatalf("SetWriteDeadline through statusRecorder: %v", deadlineErr)
	}
}

// TestWhatifStatsSection: the what-if read path's counters appear in
// /v1/stats and the expvar map, and move once per request.
func TestWhatifStatsSection(t *testing.T) {
	srv := New(figure1Engine(t, engine.ModeNormalForm), WithLogf(t.Logf))
	defer srv.Close()
	for _, r := range directRoutes[:3] {
		if rec := serveRaw(srv, r.method, r.path+"?workers=3", r.body); rec.Code != http.StatusOK {
			t.Fatalf("%s %s: %d", r.method, r.path, rec.Code)
		}
	}
	// A refused request does not count.
	if rec := serveRaw(srv, "GET", "/v1/db?workers=x", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad workers parameter answered %d", rec.Code)
	}
	if body := serveRaw(srv, "GET", "/v1/metrics", "").Body.String(); !strings.Contains(body, `"whatifRequests":3`) {
		t.Errorf("expvar map has no whatif section with three requests: %s", body)
	}
	got := decode[map[string]any](t, serveRaw(srv, "GET", "/v1/stats", "").Result())
	want := map[string]float64{
		"whatifRequests":      3,
		"whatifRowsEvaluated": 3 * 4, // the four Products rows, every time
		"whatifRowsLive":      4 + 3 + 4,
		"whatifWorkers":       9,
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
	}
	for _, name := range []string{"whatifRespBytes", "whatifEvalEncodeUs", "whatifWriteUs"} {
		if v, ok := got[name].(float64); !ok || v < 0 || (name == "whatifRespBytes" && v == 0) {
			t.Errorf("%s = %v", name, got[name])
		}
	}
}

func serveRaw(srv *Server, method, url, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, url, strings.NewReader(body)))
	return rec
}
