package server

import (
	"bytes"
	"encoding/json"

	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
)

// figure1Engine builds the paper's Figure 1a Products instance with the
// p1…p4 annotations and applies the running example's T1 and T2 as SQL.
func figure1Engine(t *testing.T, mode engine.Mode) *engine.Engine {
	t.Helper()
	schema := db.MustSchema(db.MustRelationSchema("Products",
		db.Attribute{Name: "Product", Kind: db.KindString},
		db.Attribute{Name: "Category", Kind: db.KindString},
		db.Attribute{Name: "Price", Kind: db.KindInt},
	))
	d := db.NewDatabase(schema)
	for _, r := range []db.Tuple{
		{db.S("Kids mnt bike"), db.S("Sport"), db.I(120)},
		{db.S("Tennis Racket"), db.S("Sport"), db.I(70)},
		{db.S("Kids mnt bike"), db.S("Kids"), db.I(120)},
		{db.S("Children sneakers"), db.S("Fashion"), db.I(40)},
	} {
		if err := d.InsertTuple("Products", r); err != nil {
			t.Fatal(err)
		}
	}
	names := map[string]string{
		"s13:Kids mnt bike|s5:Sport|i120":      "p1",
		"s13:Tennis Racket|s5:Sport|i70":       "p2",
		"s13:Kids mnt bike|s4:Kids|i120":       "p3",
		"s17:Children sneakers|s7:Fashion|i40": "p4",
	}
	return engine.New(mode, d, engine.WithInitialAnnotations(func(rel string, tp db.Tuple) core.Annot {
		return core.TupleAnnot(names[tp.Key()])
	}))
}

const figure1Log = `
BEGIN p;
UPDATE Products SET Category = 'Sport' WHERE Product = 'Kids mnt bike' AND Category = 'Kids';
UPDATE Products SET Category = 'Bicycles' WHERE Product = 'Kids mnt bike' AND Category = 'Sport';
COMMIT;
BEGIN pp;
UPDATE Products SET Price = 50 WHERE Category = 'Sport';
COMMIT;
`

func postJSON(t *testing.T, client *http.Client, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// normalize re-marshals any JSON-able value so that a decoded response
// (float64 numbers) compares equal to a freshly rendered databaseJSON
// (typed numbers).
func normalize(t *testing.T, v any) any {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestServerEndpoints(t *testing.T) {
	e := figure1Engine(t, engine.ModeNormalForm)
	srv := New(e)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// Ingest the running example.
	resp, err := client.Post(ts.URL+"/v1/ingest?syntax=sql", "text/plain", strings.NewReader(figure1Log))
	if err != nil {
		t.Fatal(err)
	}
	ing := decode[map[string]int](t, resp)
	if ing["transactions"] != 2 || ing["queries"] != 3 {
		t.Fatalf("ingest reported %v", ing)
	}

	// Health and stats.
	resp, err = client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if ok := decode[map[string]bool](t, resp); !ok["ok"] {
		t.Fatal("healthz not ok")
	}
	resp, err = client.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decode[map[string]any](t, resp)
	if int(stats["rows"].(float64)) != e.NumRows() {
		t.Fatalf("stats rows %v, engine has %d", stats["rows"], e.NumRows())
	}
	if int64(stats["provSize"].(float64)) != e.ProvSize() {
		t.Fatalf("stats provSize %v, engine has %d", stats["provSize"], e.ProvSize())
	}
	if int64(stats["provDagSize"].(float64)) != e.ProvDAGSize() {
		t.Fatalf("stats provDagSize %v, engine has %d", stats["provDagSize"], e.ProvDAGSize())
	}
	if dag, tree := int64(stats["provDagSize"].(float64)), int64(stats["provSize"].(float64)); dag > tree || dag <= 0 {
		t.Fatalf("DAG size %d not in (0, tree size %d]", dag, tree)
	}
	// The intern counters are process-global and monotone; the stats
	// endpoint must report a consistent nonzero snapshot by this point.
	if int64(stats["internNodes"].(float64)) <= 0 || int64(stats["internMisses"].(float64)) <= 0 {
		t.Fatalf("intern table counters missing from stats: %v", stats)
	}

	// Annotation of the Figure 4 merged bike tuple.
	resp = postJSON(t, client, ts.URL+"/v1/annotation", annotationRequest{
		Rel:     "Products",
		Tuple:   []any{"Kids mnt bike", "Bicycles", 120},
		Explain: true,
	})
	ar := decode[annotationResponse](t, resp)
	if !ar.Found || !ar.Live {
		t.Fatalf("bike tuple not found/live: %+v", ar)
	}
	want := e.Annotation("Products", db.Tuple{db.S("Kids mnt bike"), db.S("Bicycles"), db.I(120)})
	if ar.Annotation != want.String() {
		t.Fatalf("served annotation %q, engine says %q", ar.Annotation, want)
	}
	if ar.Explain == "" {
		t.Fatal("explain requested but empty")
	}
	if len(ar.Dependencies.Transactions) != 1 || ar.Dependencies.Transactions[0] != "p" {
		t.Fatalf("dependencies %+v, want transaction p", ar.Dependencies)
	}

	// Live database equals the direct valuation.
	resp, err = client.Get(ts.URL + "/v1/db")
	if err != nil {
		t.Fatal(err)
	}
	got := decode[any](t, resp)
	if wantDB := normalize(t, dbJSON(engine.LiveDB(e))); !reflect.DeepEqual(got, wantDB) {
		t.Fatalf("served live DB differs from engine.LiveDB:\n got %v\nwant %v", got, wantDB)
	}

	// Deletion propagation equals the direct engine call.
	resp = postJSON(t, client, ts.URL+"/v1/whatif/deletion", deletionRequest{Tuples: []string{"p3"}})
	got = decode[any](t, resp)
	if wantDB := normalize(t, dbJSON(engine.DeletionPropagation(e, core.TupleAnnot("p3")))); !reflect.DeepEqual(got, wantDB) {
		t.Fatalf("served deletion propagation differs from engine.DeletionPropagation:\n got %v\nwant %v", got, wantDB)
	}

	// Abort what-if equals the direct engine call.
	resp = postJSON(t, client, ts.URL+"/v1/whatif/abort", abortRequest{Labels: []string{"p"}})
	got = decode[any](t, resp)
	if wantDB := normalize(t, dbJSON(engine.AbortTransactions(e, "p"))); !reflect.DeepEqual(got, wantDB) {
		t.Fatal("served abort what-if differs from engine.AbortTransactions")
	}

	// Snapshot round trip: download, load into a fresh server, compare.
	resp, err = client.Get(ts.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(figure1Engine(t, engine.ModeNormalForm))
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp, err = ts2.Client().Post(ts2.URL+"/v1/snapshot", "application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	loaded := decode[map[string]any](t, resp)
	if int(loaded["rows"].(float64)) != e.NumRows() {
		t.Fatalf("restored server has %v rows, want %d", loaded["rows"], e.NumRows())
	}
	resp, err = ts2.Client().Get(ts2.URL + "/v1/db")
	if err != nil {
		t.Fatal(err)
	}
	got = decode[any](t, resp)
	if wantDB := normalize(t, dbJSON(engine.LiveDB(e))); !reflect.DeepEqual(got, wantDB) {
		t.Fatal("live DB after snapshot round trip differs")
	}

	// Metrics counted every endpoint hit at least once.
	resp, err = client.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	counters := decode[map[string]any](t, resp)
	for _, key := range []string{"ingest.requests", "annotation.requests", "db.requests", "whatif_deletion.requests", "snapshot_save.requests"} {
		if counters[key] == nil {
			t.Fatalf("metrics missing %s: %v", key, counters)
		}
	}
	if counters["annotation.errors"] != nil {
		t.Fatalf("unexpected annotation errors: %v", counters["annotation.errors"])
	}
	// The map holds per-request counters only: each mounted route's
	// three and the event counters nothing else records. Subsystem state
	// is rendered by /v1/stats alone, so a gauge added here fails.
	allowed := map[string]bool{
		"panics": true, "snapshot_save.aborts": true,
		"replication_stream.requests": true, "replication_stream.drops": true,
		"subscribe.requests": true, "subscribe.drops": true,
	}
	for _, route := range []string{"healthz", "readyz", "stats", "schema", "annotation", "indexes_list", "db", "whatif_deletion",
		"whatif_abort", "snapshot_save", "ingest", "indexes_build", "indexes_drop", "snapshot_load", "checkpoint"} {
		for _, counter := range []string{".requests", ".latency_us"} {
			if counters[route+counter] == nil {
				t.Errorf("metrics missing %s%s", route, counter)
			}
			allowed[route+counter] = true
		}
		allowed[route+".errors"] = true
	}
	for key, v := range counters {
		if !allowed[key] {
			t.Errorf("metrics carry %s = %v, which is neither a route's counter nor an event counter", key, v)
		}
	}
}

func TestServerErrors(t *testing.T) {
	srv := New(figure1Engine(t, engine.ModeNaive))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	cases := []struct {
		name   string
		do     func() *http.Response
		status int
	}{
		{"unknown relation", func() *http.Response {
			return postJSON(t, client, ts.URL+"/v1/annotation", annotationRequest{Rel: "Nope", Tuple: []any{"x"}})
		}, http.StatusNotFound},
		{"bad tuple arity", func() *http.Response {
			return postJSON(t, client, ts.URL+"/v1/annotation", annotationRequest{Rel: "Products", Tuple: []any{"x"}})
		}, http.StatusBadRequest},
		{"bad tuple type", func() *http.Response {
			return postJSON(t, client, ts.URL+"/v1/annotation", annotationRequest{Rel: "Products", Tuple: []any{"x", "y", 1.5}})
		}, http.StatusBadRequest},
		{"empty deletion", func() *http.Response {
			return postJSON(t, client, ts.URL+"/v1/whatif/deletion", deletionRequest{})
		}, http.StatusBadRequest},
		{"bad log", func() *http.Response {
			resp, err := client.Post(ts.URL+"/v1/ingest", "text/plain", strings.NewReader("DROP TABLE Products;"))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusBadRequest},
		{"bad snapshot", func() *http.Response {
			resp, err := client.Post(ts.URL+"/v1/snapshot", "application/octet-stream", strings.NewReader("not a snapshot"))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp := c.do()
		er := decode[errorResponse](t, resp)
		if resp.StatusCode != c.status || er.Error.Message == "" || er.Error.Code == "" {
			t.Errorf("%s: status %d (want %d), error %+v", c.name, resp.StatusCode, c.status, er.Error)
		}
	}

	// A missing tuple is found=false, not an error.
	resp := postJSON(t, client, ts.URL+"/v1/annotation", annotationRequest{Rel: "Products", Tuple: []any{"x", "y", 1}})
	if ar := decode[annotationResponse](t, resp); ar.Found {
		t.Fatal("absent tuple reported found")
	}
}

// TestServerTupleAnnotationNames checks that int and float attributes
// parse from JSON numbers and numeric strings alike.
func TestParseTupleLenient(t *testing.T) {
	rel := db.MustRelationSchema("R",
		db.Attribute{Name: "s", Kind: db.KindString},
		db.Attribute{Name: "i", Kind: db.KindInt},
		db.Attribute{Name: "f", Kind: db.KindFloat},
	)
	for _, raw := range [][]any{
		{"a", float64(3), float64(1.5)},
		{"a", "3", "1.5"},
	} {
		tp, err := parseTuple(rel, raw)
		if err != nil {
			t.Fatalf("%v: %v", raw, err)
		}
		if want := (db.Tuple{db.S("a"), db.I(3), db.F(1.5)}); !tp.Equal(want) {
			t.Fatalf("parsed %v as %v, want %v", raw, tp, want)
		}
	}
	if _, err := parseTuple(rel, []any{"a", 1.5, 1.0}); err == nil {
		t.Fatal("accepted fractional value for int attribute")
	}
}
