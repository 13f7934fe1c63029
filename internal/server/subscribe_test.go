package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/subscribe"
	"hyperprov/internal/tpcc"
	"hyperprov/internal/upstruct"
)

// frameReader pumps one streaming response body on a goroutine so
// tests can read frames with a timeout instead of hanging on a broken
// stream.
type frameReader struct {
	resp   *http.Response
	frames chan subscribe.Frame
	errs   chan error
}

func newFrameReader(resp *http.Response, sse bool) *frameReader {
	fr := &frameReader{resp: resp, frames: make(chan subscribe.Frame, 64), errs: make(chan error, 1)}
	go func() {
		defer resp.Body.Close()
		br := bufio.NewReader(resp.Body)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				fr.errs <- err
				return
			}
			line = strings.TrimSpace(line)
			if sse {
				if !strings.HasPrefix(line, "data: ") {
					continue // SSE frame separators are blank lines
				}
				line = strings.TrimPrefix(line, "data: ")
			}
			if line == "" {
				continue
			}
			var f subscribe.Frame
			if err := json.Unmarshal([]byte(line), &f); err != nil {
				fr.errs <- fmt.Errorf("bad frame %q: %v", line, err)
				return
			}
			fr.frames <- f
		}
	}()
	return fr
}

// close drops the client side of the stream so httptest.Server.Close
// does not wait out the infinite response.
func (fr *frameReader) close() { fr.resp.Body.Close() }

func (fr *frameReader) next(t *testing.T) subscribe.Frame {
	t.Helper()
	select {
	case f := <-fr.frames:
		return f
	case err := <-fr.errs:
		t.Fatalf("stream ended: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a frame")
	}
	return subscribe.Frame{}
}

// openStream POSTs the subscription request and returns the frame
// reader once the 200 header is in.
func openStream(t *testing.T, ts *httptest.Server, body string) *frameReader {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/subscribe", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		t.Fatalf("subscribe answered %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("subscribe content type %q", ct)
	}
	return newFrameReader(resp, false)
}

// TestSubscribeStream drives the ND-JSON endpoint end to end: register
// a watch and a deletion what-if, ingest the Figure 1 log over HTTP,
// and assert acks and in-order deltas arrive on the stream.
func TestSubscribeStream(t *testing.T) {
	e := figure1Engine(t, engine.ModeNormalForm)
	srv := New(e, WithLogf(t.Logf))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fr := openStream(t, ts, `{"subscriptions":[
		{"id":"watch","kind":"watch","rel":"Products"},
		{"id":"del","kind":"deletion","tuples":["p1"]}
	]}`)
	defer fr.close()
	ackA, ackB := fr.next(t), fr.next(t)
	if ackA.Type != "ack" || ackA.ID != "watch" || len(ackA.Rows) != 4 {
		t.Fatalf("bad watch ack: %+v", ackA)
	}
	if ackB.Type != "ack" || ackB.ID != "del" || len(ackB.Rows) != 3 {
		t.Fatalf("bad deletion ack (p1 dead leaves 3 rows): %+v", ackB)
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/ingest?syntax=sql", "text/plain", strings.NewReader(figure1Log))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Two transactions committed; the watch must see both in epoch
	// order, the deletion what-if at least the first (T1 moves p3's
	// survivor row).
	var lastEpoch uint64
	seen := map[string]int{}
	for i := 0; i < 3; i++ {
		f := fr.next(t)
		if f.Type != "delta" {
			t.Fatalf("frame %d: unexpected %q frame: %+v", i, f.Type, f)
		}
		if f.Epoch < lastEpoch {
			t.Fatalf("frame %d: epoch %d after %d", i, f.Epoch, lastEpoch)
		}
		lastEpoch = f.Epoch
		seen[f.ID]++
	}
	if seen["watch"] != 2 || seen["del"] != 1 {
		t.Fatalf("unexpected delta mix: %v", seen)
	}

	// The stats section must report the registrations.
	st := decode[map[string]any](t, mustGet(t, ts.Client(), ts.URL+"/v1/stats"))
	sub, ok := st["subscriptions"].(map[string]any)
	if !ok {
		t.Fatalf("stats has no subscriptions section: %v", st)
	}
	if sub["subscriptions"].(float64) != 2 || sub["connections"].(float64) != 1 {
		t.Fatalf("subscription stats wrong: %v", sub)
	}
	if sub["deltas"].(float64) < 3 {
		t.Fatalf("delta counter did not move: %v", sub)
	}
}

// TestSubscribeSSE exercises the GET/SSE shape of the same endpoint.
func TestSubscribeSSE(t *testing.T) {
	e := figure1Engine(t, engine.ModeNormalForm)
	srv := New(e, WithLogf(t.Logf))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := url.QueryEscape(`{"id":"w","kind":"watch","rel":"Products","match":[null,"Sport",null]}`)
	resp, err := ts.Client().Get(ts.URL + "/v1/subscribe?spec=" + spec)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE subscribe answered %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	fr := newFrameReader(resp, true)
	defer fr.close()
	ack := fr.next(t)
	if ack.Type != "ack" || ack.ID != "w" || len(ack.Rows) != 2 {
		t.Fatalf("bad SSE ack (2 Sport rows): %+v", ack)
	}
}

// TestSubscribeRejections: spec errors answer typed envelopes before
// any stream bytes.
func TestSubscribeRejections(t *testing.T) {
	e := figure1Engine(t, engine.ModeNormalForm)
	srv := New(e, WithLogf(t.Logf))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		body   string
		status int
		code   string
	}{
		{`{"subscriptions":[]}`, http.StatusBadRequest, codeBadRequest},
		{`{"subscriptions":[{"kind":"watch","rel":"Nope"}]}`, http.StatusNotFound, codeUnknownRelation},
		{`{"subscriptions":[{"kind":"deletion"}]}`, http.StatusBadRequest, codeBadRequest},
		{`{"subscriptions":[{"kind":"watch","rel":"Products","match":[1]}]}`, http.StatusBadRequest, codeBadRequest},
		{`not json`, http.StatusBadRequest, codeBadRequest},
	}
	for i, tc := range cases {
		resp, err := ts.Client().Post(ts.URL+"/v1/subscribe", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Fatalf("case %d: status %d, want %d", i, resp.StatusCode, tc.status)
		}
		body := decode[errorResponse](t, resp)
		if body.Error.Code != tc.code {
			t.Fatalf("case %d: code %q, want %q", i, body.Error.Code, tc.code)
		}
	}
}

// TestSubscribeAcrossSnapshotLoad keeps a stream open while the served
// engine is swapped by a snapshot load: the subscriber must receive a
// resync frame against the new engine rather than going silent.
func TestSubscribeAcrossSnapshotLoad(t *testing.T) {
	e := figure1Engine(t, engine.ModeNormalForm)
	srv := New(e, WithLogf(t.Logf))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fr := openStream(t, ts, `{"subscriptions":[{"id":"w","kind":"watch","rel":"Products"}]}`)
	defer fr.close()
	if ack := fr.next(t); ack.Type != "ack" {
		t.Fatalf("expected ack, got %+v", ack)
	}

	// Round-trip the server's own snapshot back into it — the swap the
	// subscription must survive.
	snap, err := ts.Client().Get(ts.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/snapshot", "application/octet-stream", snap.Body)
	snap.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot load answered %d", resp.StatusCode)
	}

	f := fr.next(t)
	if f.Type != "resync" || f.ID != "w" || len(f.Rows) != 4 {
		t.Fatalf("expected post-swap resync with 4 rows, got %+v", f)
	}
}

// TestErrorEnvelopeRouting: unknown routes answer 404 unknown_route
// and known paths with a wrong method answer 405 method_not_allowed
// with an Allow header — through the typed envelope, on both the plain
// and the stream-mounted routes.
func TestErrorEnvelopeRouting(t *testing.T) {
	e := figure1Engine(t, engine.ModeNormalForm)
	srv := New(e, WithLogf(t.Logf))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	do := func(method, path string) *http.Response {
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := do("GET", "/v1/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route answered %d", resp.StatusCode)
	}
	if body := decode[errorResponse](t, resp); body.Error.Code != codeUnknownRoute {
		t.Fatalf("unknown route code %q", body.Error.Code)
	}

	for _, tc := range []struct{ method, path, allow string }{
		{"DELETE", "/v1/stats", "GET"},
		{"POST", "/healthz", "GET"},
		{"GET", "/v1/whatif/deletion", "POST"},
		{"DELETE", "/v1/subscribe", "GET, POST"},
		{"POST", "/v1/replication/stream", "GET"},
	} {
		resp := do(tc.method, tc.path)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s answered %d", tc.method, tc.path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != tc.allow {
			t.Fatalf("%s %s Allow %q, want %q", tc.method, tc.path, allow, tc.allow)
		}
		if body := decode[errorResponse](t, resp); body.Error.Code != codeMethodNotAllowed {
			t.Fatalf("%s %s code %q", tc.method, tc.path, body.Error.Code)
		}
	}
}

// TestSubscribeBufferCeiling: the per-connection frame buffer is a
// client-chosen allocation, so it has a ceiling — the largest allowed
// value opens a stream, anything above it answers 400 bad_request
// before any allocation, on both transports.
func TestSubscribeBufferCeiling(t *testing.T) {
	e := figure1Engine(t, engine.ModeNormalForm)
	srv := New(e, WithLogf(t.Logf))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := `{"id":"w","kind":"watch","rel":"Products"}`
	open := func(sse bool, buffer int) *http.Response {
		t.Helper()
		var resp *http.Response
		var err error
		if sse {
			resp, err = ts.Client().Get(fmt.Sprintf("%s/v1/subscribe?buffer=%d&spec=%s", ts.URL, buffer, url.QueryEscape(spec)))
		} else {
			resp, err = ts.Client().Post(ts.URL+"/v1/subscribe", "application/json",
				strings.NewReader(fmt.Sprintf(`{"subscriptions":[%s],"buffer":%d}`, spec, buffer)))
		}
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, sse := range []bool{false, true} {
		for _, buffer := range []int{subscribe.MaxConnBuffer + 1, 1 << 40} {
			resp := open(sse, buffer)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("sse=%v buffer=%d answered %d, want 400", sse, buffer, resp.StatusCode)
			}
			if body := decode[errorResponse](t, resp); body.Error.Code != codeBadRequest {
				t.Fatalf("sse=%v buffer=%d: code %q", sse, buffer, body.Error.Code)
			}
		}
		resp := open(sse, subscribe.MaxConnBuffer)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sse=%v: the ceiling itself answered %d", sse, resp.StatusCode)
		}
		fr := newFrameReader(resp, sse)
		if ack := fr.next(t); ack.Type != "ack" || len(ack.Rows) != 4 {
			t.Fatalf("sse=%v: bad ack at the ceiling: %+v", sse, ack)
		}
		fr.close()
	}
	if st := srv.Subscriptions().StatsSnapshot(); st.RespecNodes != 0 || st.FrameBytes == 0 {
		t.Fatalf("two watch acks must count frame bytes and no kernel nodes: %+v", st)
	}
}

// TestSubscribeDuringClose: a server closing while subscriptions arrive
// answers each with a stream, which Close then ends, or 503 canceled —
// never 400, which would blame the client for the shutdown. A request
// that attached before Close and registers after it met the closed
// manager's ErrClosed, and was answered 400 bad_request.
func TestSubscribeDuringClose(t *testing.T) {
	srv := New(figure1Engine(t, engine.ModeNormalForm), WithLogf(t.Logf))
	h := srv.Handler()
	const requests = 200
	codes := make(chan int, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		if i == requests/2 {
			wg.Add(1)
			go func() { defer wg.Done(); srv.Close() }()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/subscribe", strings.NewReader(
				`{"subscriptions":[{"kind":"watch","rel":"Products"},{"kind":"deletion","tuples":["p1"]}]}`)))
			codes <- rec.Code
		}()
	}
	wg.Wait()
	close(codes)
	seen := map[int]int{}
	for code := range codes {
		seen[code]++
	}
	t.Logf("statuses: %v", seen)
	if seen[http.StatusOK]+seen[http.StatusServiceUnavailable] != requests {
		t.Fatalf("a subscription racing Close answered %v, want only 200 and 503", seen)
	}
}

// TestAnnotationLiveIsTheTreeWalk: /v1/annotation answers "live" from
// the per-node memo (Expr.Live); on every row of a seeded TPC-C
// history it must be what the definition-following tree walk under the
// all-true valuation computes, at the live horizon and as of an
// earlier epoch.
func TestAnnotationLiveIsTheTreeWalk(t *testing.T) {
	g := tpcc.NewGenerator(tpcc.Scaled(0.002))
	initial, err := g.InitialDatabase()
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.ModeNormalForm, initial)
	if err := e.ApplyAll(context.Background(), g.Transactions(150)); err != nil {
		t.Fatal(err)
	}
	srv := New(e, WithLogf(t.Logf))
	defer srv.Close()
	h := srv.Handler()
	allTrue := func(core.Annot) bool { return true }
	asked, dead := 0, 0
	for _, asOf := range []string{"", "?as_of=75"} {
		var view engine.Reader = e
		if asOf != "" {
			view = e.At(75)
		}
		n := 0
		view.Rows(func(rel string, tu db.Tuple, ann *core.Expr) {
			want := upstruct.Eval(ann, upstruct.Bool, allTrue)
			if ann.Live() != want {
				t.Fatalf("%s%v: Live() %v, tree walk %v", rel, tu, ann.Live(), want)
			}
			if n++; n%7 != 0 && want { // every dead row, one live row in seven, over HTTP
				return
			}
			vals := make([]any, len(tu))
			for i, v := range tu {
				switch v.Kind() {
				case db.KindInt:
					vals[i] = v.Int()
				case db.KindFloat:
					vals[i] = v.Float()
				default:
					vals[i] = v.Str()
				}
			}
			body, err := json.Marshal(annotationRequest{Rel: rel, Tuple: vals})
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/annotation"+asOf, bytes.NewReader(body)))
			var resp annotationResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || !resp.Found {
				t.Fatalf("%s%v: %d %s (%v)", rel, tu, rec.Code, rec.Body.Bytes(), err)
			}
			if resp.Live != want {
				t.Fatalf("%s%v%s: /v1/annotation says live=%v, the tree walk %v", rel, tu, asOf, resp.Live, want)
			}
			asked++
			if !want {
				dead++
			}
		})
	}
	if asked < 100 || dead == 0 {
		t.Fatalf("asked %d rows, %d of them dead: the history exercises too little", asked, dead)
	}
}
