package subscribe_test

// The protocol through the HTTP server: /v1/subscribe streams acks and
// resyncs as the manager renders them, FrameKeep bytes at a time, and
// sends its status line with the first ack's first byte. A client
// reading the ND-JSON or SSE stream must compose exactly what Recompute
// builds, see the bytes Manager.Subscribe returns, and be told about an
// ack that cannot be built the way the protocol says.

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
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
	"hyperprov/internal/server"
	"hyperprov/internal/subscribe"
)

// paddedEngine holds rows whose 200-byte strings make a deletion
// what-if's ack over all of them span more than ten windows.
func paddedEngine(t *testing.T, rows int) *engine.Engine {
	t.Helper()
	schema := db.MustSchema(db.MustRelationSchema("P",
		db.Attribute{Name: "id", Kind: db.KindInt},
		db.Attribute{Name: "grp", Kind: db.KindInt},
		db.Attribute{Name: "pad", Kind: db.KindString}))
	initial := db.NewDatabase(schema)
	for i := 0; i < rows; i++ {
		if err := initial.InsertTuple("P", db.Tuple{db.I(int64(i)), db.I(int64(i % 50)), db.S(fmt.Sprintf("%0200d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	return engine.New(engine.ModeNormalForm, initial, engine.WithInitialAnnotations(func(_ string, tu db.Tuple) core.Annot {
		return core.TupleAnnot(fmt.Sprintf("p%d", tu[0].Int()))
	}))
}

// openStream subscribes specs over the server's ND-JSON (POST) or SSE
// (GET) transport and returns the response and a reader of its frames,
// newline included, as the manager encoded them.
func openStream(t *testing.T, ts *httptest.Server, specs []string, buffer int, sse bool) (*http.Response, func() []byte) {
	t.Helper()
	client := ts.Client()
	client.Timeout = 2 * time.Minute
	var resp *http.Response
	var err error
	if sse {
		q := url.Values{"spec": specs, "buffer": {fmt.Sprint(buffer)}}
		resp, err = client.Get(ts.URL + "/v1/subscribe?" + q.Encode())
	} else {
		body := fmt.Sprintf(`{"subscriptions":[%s],"buffer":%d}`, strings.Join(specs, ","), buffer)
		resp, err = client.Post(ts.URL+"/v1/subscribe", "application/json", strings.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	return resp, func() []byte {
		t.Helper()
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				t.Fatalf("stream ended: %v", err)
			}
			if !sse {
				return line
			}
			if data, ok := bytes.CutPrefix(line, []byte("data: ")); ok {
				return data
			} // else the blank line that ends an event
		}
	}
}

// TestStreamThroughServer: a deletion what-if whose ack spans more than
// ten windows and a watch, subscribed over both transports with a roomy
// and a 1-frame buffer while a writer commits throughout. The streamed
// acks are first checked byte for byte against Manager.Subscribe's at
// the same horizon; then the client composes acks, deltas and resyncs
// and must hold what Recompute builds at the final horizon.
func TestStreamThroughServer(t *testing.T) {
	const rows = 12000
	e := paddedEngine(t, rows)
	srv := server.New(e, server.WithLogf(t.Logf))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	specs := []subscribe.Spec{
		{ID: "del", Kind: subscribe.KindDeletion, Tuples: []string{"p5", "p6"}},
		{ID: "w", Kind: subscribe.KindWatch, Rel: "P", Match: []any{nil, float64(0), nil}},
	}
	raw := []string{`{"id":"del","kind":"deletion","tuples":["p5","p6"]}`, `{"id":"w","kind":"watch","rel":"P","match":[null,0,null]}`}
	next := rows
	for _, sse := range []bool{false, true} {
		for _, buffer := range []int{4096, 1} {
			t.Run(fmt.Sprintf("sse=%v/buffer=%d", sse, buffer), func(t *testing.T) {
				// The previous subtest's stream ends when its handler sees the
				// client gone; its subscriptions must not count here.
				for deadline := time.Now().Add(10 * time.Second); srv.Subscriptions().StatsSnapshot().Connections != 0; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("an earlier stream is still registered")
					}
				}
				if buffer == 4096 { // no writer yet: the acks' horizon is the live one
					resp, frame := openStream(t, ts, raw, buffer, sse)
					m, c := srv.Subscriptions(), srv.Subscriptions().Attach(0)
					for _, sp := range specs {
						got := frame()
						want, err := m.Subscribe(c, sp)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("%s: the streamed ack (%d bytes) differs from Manager.Subscribe's (%d bytes)", sp.ID, len(got), len(want))
						}
						if sp.ID == "del" && len(got) < 10*subscribe.FrameKeep {
							t.Fatalf("the what-if's ack is %d bytes, less than ten %d-byte windows", len(got), subscribe.FrameKeep)
						}
					}
					c.Close()
					resp.Body.Close()
				}

				// The writer commits a modification, an insert and a delete per
				// transaction until the acks are in (or it has made 2 000),
				// then one insert that moves both subscriptions, and reports
				// its epoch.
				stop, final := make(chan struct{}), make(chan uint64, 1)
				stopped := sync.OnceFunc(func() { close(stop) })
				defer stopped()
				go func() {
					for i := 0; i < 2000; i++ {
						select {
						case <-stop:
							i = 2000
							continue
						default:
						}
						id := int64(next)
						next++
						txn := db.Transaction{Label: fmt.Sprintf("w%d", id), Updates: []db.Update{
							db.Modify("P", db.Pattern{db.Const(db.I(int64(i))), db.AnyVar("g"), db.AnyVar("s")},
								[]db.SetClause{db.Keep(), db.SetTo(db.I(int64(i % 3))), db.Keep()}),
							db.Insert("P", db.Tuple{db.I(id), db.I(0), db.S("new")}),
							db.Delete("P", db.Pattern{db.Const(db.I(id - 7)), db.AnyVar("g"), db.AnyVar("s")}),
						}}
						if err := e.ApplyTransaction(&txn); err != nil {
							t.Error(err)
						}
					}
					<-stop
					marker := db.Transaction{Label: "final", Updates: []db.Update{db.Insert("P", db.Tuple{db.I(int64(next)), db.I(0), db.S("final")})}}
					next++
					if err := e.ApplyTransaction(&marker); err != nil {
						t.Error(err)
					}
					final <- e.Horizon()
				}()
				dropped := srv.Subscriptions().StatsSnapshot().FrameDrops
				resp, frame := openStream(t, ts, raw, buffer, sse)
				defer resp.Body.Close()
				mi := newMirror(t, e.Schema())
				read := func() subscribe.Frame {
					raw := frame()
					if bytes.HasPrefix(raw, []byte(`{"type":"error"`)) {
						t.Fatalf("the stream ended a subscription: %s", raw)
					}
					return mi.apply(raw)
				}
				for _, sp := range specs {
					if f := read(); f.Type != "ack" || f.ID != sp.ID {
						t.Fatalf("expected the ack of %q, got %s %q", sp.ID, f.Type, f.ID)
					}
				}
				stopped()
				last := <-final
				for mi.epoch["del"] < last || mi.epoch["w"] < last {
					read()
				}
				h := e.Horizon()
				for _, sp := range specs {
					want, err := subscribe.Recompute(e.At(h), sp)
					if err != nil {
						t.Fatal(err)
					}
					if got := mi.canonical(sp.ID); !bytes.Equal(got, want) {
						t.Fatalf("%q diverged at epoch %d: the client holds %d bytes of state, Recompute %d", sp.ID, last, len(got), len(want))
					}
				}
				t.Logf("frames read: %v", mi.frames)
				// A writer that outruns the dispatcher overflows its queue, and
				// the rebuild resyncs whatever the buffer; only a 1-frame buffer
				// drops frames, and the marker's two frames alone make it resync.
				drops := srv.Subscriptions().StatsSnapshot().FrameDrops - dropped
				if buffer == 1 && mi.frames["resync"] == 0 || buffer > 1 && drops != 0 {
					t.Fatalf("a %d-frame buffer dropped %d frames and read %v", buffer, drops, mi.frames)
				}
			})
		}
	}
}

// TestUnframeableAckThroughServer: a first ack that cannot be built —
// its relation holds a NaN — answers the 400 envelope before any
// stream byte; the same ack after another has gone out is one error
// frame, and the subscription before it goes on. A spec error is
// answered before any byte wherever it sits in the request.
func TestUnframeableAckThroughServer(t *testing.T) {
	schema := db.MustSchema(
		db.MustRelationSchema("R", db.Attribute{Name: "id", Kind: db.KindInt}, db.Attribute{Name: "f", Kind: db.KindFloat}),
		db.MustRelationSchema("S", db.Attribute{Name: "id", Kind: db.KindInt}))
	initial := db.NewDatabase(schema)
	for _, tu := range []db.Tuple{{db.I(1), db.F(0.5)}, {db.I(2), db.F(math.NaN())}} {
		if err := initial.InsertTuple("R", tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := initial.InsertTuple("S", db.Tuple{db.I(1)}); err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.ModeNormalForm, initial)
	srv := server.New(e, server.WithLogf(t.Logf))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	s, r := `{"id":"s","kind":"watch","rel":"S"}`, `{"id":"r","kind":"watch","rel":"R"}`

	// A bad spec anywhere in the request is refused before the first ack
	// streams: an unknown relation after a good spec, or an ID given twice.
	for body, want := range map[string]int{
		`{"subscriptions":[` + s + `,{"kind":"watch","rel":"Nope"}]}`: http.StatusNotFound,
		`{"subscriptions":[` + s + `,` + s + `]}`:                     http.StatusBadRequest,
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/subscribe", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s answered %d, want %d", body, resp.StatusCode, want)
		}
	}

	for i, sse := range []bool{false, true} {
		resp, _ := openStream(t, ts, []string{r, s}, 0, sse)
		var body bytes.Buffer
		_, _ = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.String(), `"code":"bad_request"`) || !strings.Contains(body.String(), "float") {
			t.Fatalf("sse=%v: an unframeable first ack answered %d %s", sse, resp.StatusCode, body.Bytes())
		}

		resp, frame := openStream(t, ts, []string{s, r}, 0, sse)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sse=%v: answered %d", sse, resp.StatusCode)
		}
		if f := checkWire(t, frame()); f.Type != "ack" || f.ID != "s" || len(f.Rows) != 1+i {
			t.Fatalf("sse=%v: first frame %+v", sse, f)
		}
		if f := checkWire(t, frame()); f.Type != "error" || f.ID != "r" || f.Code != "unframeable" || !strings.Contains(f.Message, "float") {
			t.Fatalf("sse=%v: an unframeable later ack sent %+v", sse, f)
		}
		txn := db.Transaction{Label: fmt.Sprintf("s%d", i), Updates: []db.Update{db.Insert("S", db.Tuple{db.I(int64(2 + i))})}}
		if err := e.ApplyTransaction(&txn); err != nil {
			t.Fatal(err)
		}
		if f := checkWire(t, frame()); f.Type != "delta" || f.ID != "s" || len(f.Added) != 1 {
			t.Fatalf("sse=%v: after the error frame the stream sent %+v", sse, f)
		}
		resp.Body.Close()
	}
}
