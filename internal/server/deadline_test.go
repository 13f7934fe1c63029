package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/parser"
	"hyperprov/internal/provstore"
	"hyperprov/internal/wal"
)

// directRoutes is every route mounted on the request deadline (all but
// the two stream routes): the materializing reads first, then the
// routes that were behind http.TimeoutHandler until the deadline became
// one mechanism. status is what the route answers within its deadline
// on the in-memory Figure 1 engine (0: 200); a POST /v1/snapshot body
// of "snapshot" stands for the server's own GET /v1/snapshot bytes.
var directRoutes = []struct {
	method, path, body string
	status             int
}{
	{"GET", "/v1/db", "", 0},
	{"POST", "/v1/whatif/deletion", `{"tuples":["p3"]}`, 0},
	{"POST", "/v1/whatif/abort", `{"labels":["p"]}`, 0},
	{"GET", "/v1/snapshot", "", 0},
	{"GET", "/healthz", "", 0},
	{"GET", "/readyz", "", 0},
	{"GET", "/v1/stats", "", 0},
	{"GET", "/v1/schema", "", 0},
	{"POST", "/v1/annotation", `{"rel":"Products","tuple":["Tennis Racket","Sport",70]}`, 0},
	{"GET", "/v1/indexes", "", 0},
	{"POST", "/v1/ingest", figure1Log, 0},
	{"POST", "/v1/indexes", `{"rel":"Products","attr":"Category"}`, 0},
	{"DELETE", "/v1/indexes?rel=Products&attr=Category", "", 0},
	{"POST", "/v1/snapshot", "snapshot", 0},
	{"POST", "/v1/checkpoint", "", http.StatusConflict}, // not a persistent store
	{"GET", "/v1/metrics", "", 0},
	{"GET", "/debug/vars", "", 0},
}

// TestDirectRoutesDeadlineBeforeFirstByte: a request deadline that
// fires before the response started answers 503 with the verbatim
// timeout envelope on every route — over a real connection, and
// in-process on a recorder, where SetWriteDeadline answers
// http.ErrNotSupported and that must not surface.
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
// route's full response.
func TestDirectRoutesServeWithinDeadline(t *testing.T) {
	srv := New(figure1Engine(t, engine.ModeNormalForm), WithLogf(t.Logf))
	defer srv.Close()
	for _, r := range directRoutes {
		body, want := r.body, max(r.status, http.StatusOK)
		if body == "snapshot" {
			body = serveRaw(srv, "GET", "/v1/snapshot", "").Body.String()
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(r.method, r.path, strings.NewReader(body)))
		if rec.Code != want || rec.Body.Len() == 0 {
			t.Errorf("%s %s on a recorder: %d with %d bytes, want a %d body: %s", r.method, r.path, rec.Code, rec.Body.Len(), want, rec.Body)
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

// chunkDeadline is a store whose ApplyBatch sees the request deadline
// fire exactly between two chunks: wal.Store asks its context once per
// chunk, the first after answers are nil whatever the clock says, and
// the next one waits for the deadline.
type chunkDeadline struct {
	engine.DB
	after int
}

type stallingContext struct {
	context.Context
	left *int
}

func (c stallingContext) Err() error {
	if *c.left--; *c.left >= 0 {
		return nil
	}
	<-c.Done()
	return c.Context.Err()
}

func (d chunkDeadline) ApplyBatch(ctx context.Context, txns []db.Transaction) (int, error) {
	left := d.after
	return d.DB.ApplyBatch(stallingContext{ctx, &left}, txns)
}

// TestIngestDeadlineReportsApplied: the promise in handleIngest's
// comment, which http.TimeoutHandler broke by answering for the
// handler. A deadline that fires between ApplyBatch chunks answers 503
// timeout with the durably applied count, the state holds exactly that
// prefix, and resubmitting the rest completes it; one that fires before
// anything applied answers the plain timeout envelope.
func TestIngestDeadlineReportsApplied(t *testing.T) {
	const n, chunk = 2*256 + 100, 256
	logs := make([]string, n)
	for i := range logs {
		logs[i] = fmt.Sprintf("BEGIN d%d;\nINSERT INTO Products VALUES ('item %d', 'Toys', %d);\nUPDATE Products SET Price = %d WHERE Product = 'item %d';\nCOMMIT;\n", i, i, i, i+1, i/2)
	}
	snapshot := func(e engine.Reader) string {
		var b bytes.Buffer
		if err := provstore.SaveSnapshot(&b, e); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	// after applies a prefix of the log to an engine of the same start.
	after := func(k int) string {
		e := engine.New(engine.ModeNormalForm, figure1Database(t))
		txns, err := parser.ParseSQLLog(e.Schema(), strings.Join(logs[:k], ""))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ApplyAll(context.Background(), txns); err != nil {
			t.Fatal(err)
		}
		return snapshot(e)
	}
	for _, chunks := range []int{0, 2} {
		st, err := wal.Open(t.TempDir(), wal.WithMode(engine.ModeNormalForm), wal.WithInitialDatabase(figure1Database(t)))
		if err != nil {
			t.Fatal(err)
		}
		srv := New(chunkDeadline{st, chunks}, WithTimeout(50*time.Millisecond), WithLogf(t.Logf))
		rec := serveRaw(srv, "POST", "/v1/ingest", strings.Join(logs, ""))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("deadline after %d chunks: %d %s", chunks, rec.Code, rec.Body)
		}
		applied := chunks * chunk
		if chunks == 0 {
			if rec.Body.String() != timeoutBody {
				t.Errorf("deadline before anything applied: %q, want %q", rec.Body, timeoutBody)
			}
		} else {
			got := decode[errorResponse](t, rec.Result()).Error
			if got.Code != codeTimeout || got.Applied == nil || *got.Applied != applied {
				t.Errorf("deadline after %d chunks: %s, want code %s and applied %d", chunks, rec.Body, codeTimeout, applied)
			}
		}
		if snapshot(st) != after(applied) {
			t.Errorf("deadline after %d chunks: the state is not the log's first %d transactions", chunks, applied)
		}
		srv.Close()
		// The caller may safely resubmit the rest.
		srv = New(st, WithLogf(t.Logf))
		if rec := serveRaw(srv, "POST", "/v1/ingest", strings.Join(logs[applied:], "")); rec.Code != http.StatusOK {
			t.Fatalf("resubmitting from %d: %d %s", applied, rec.Code, rec.Body)
		}
		if snapshot(st) != after(n) {
			t.Errorf("resubmitting from %d does not reach the full log's state", applied)
		}
		srv.Close()
		st.Close()
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
// /v1/stats, and only there, and move once per request.
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
	noMetricsSection(t, srv, "whatif")
	got := decode[map[string]any](t, serveRaw(srv, "GET", "/v1/stats", "").Result())
	want := map[string]float64{
		"whatifRequests":      3,
		"whatifRowsEvaluated": 3 * 4, // the four Products rows, every time
		"whatifRowsLive":      4 + 3 + 4,
		"whatifWorkers":       9,
		"whatifStreamed":      0, // four rows fit the first window
		"whatifAborted":       0,
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

// noMetricsSection fails t if /v1/metrics carries any of the named
// sections: each is rendered in /v1/stats (or /v1/indexes) only.
func noMetricsSection(t *testing.T, srv *Server, names ...string) {
	t.Helper()
	vars := decode[map[string]any](t, serveRaw(srv, "GET", "/v1/metrics", "").Result())
	for _, name := range names {
		if v, ok := vars[name]; ok {
			t.Errorf("/v1/metrics carries a %s section: %v", name, v)
		}
	}
}
