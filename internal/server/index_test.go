package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hyperprov/internal/engine"
)

type indexInfoJSON struct {
	Rel     string `json:"rel"`
	Attr    string `json:"attr"`
	Auto    bool   `json:"auto"`
	Keys    int    `json:"keys"`
	Entries int    `json:"entries"`
	Bytes   int    `json:"bytes"`
}

type indexListJSON struct {
	Indexes []indexInfoJSON `json:"indexes"`
	Planner struct {
		FullScans  uint64 `json:"fullScans"`
		IndexScans uint64 `json:"indexScans"`
		AutoBuilds uint64 `json:"autoBuilds"`
	} `json:"planner"`
}

// TestIndexEndpoints walks the index lifecycle over HTTP: empty list,
// build, idempotent re-build, list with stats, drop, and the 404 for
// dropping what is not there.
func TestIndexEndpoints(t *testing.T) {
	srv := New(figure1Engine(t, engine.ModeNormalForm))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// Empty listing renders an empty array, not null.
	resp, err := client.Get(ts.URL + "/v1/indexes")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[indexListJSON](t, resp)
	if list.Indexes == nil || len(list.Indexes) != 0 {
		t.Fatalf("want empty indexes array, got %+v", list.Indexes)
	}

	// Build an index; building it again is a no-op success.
	for i := 0; i < 2; i++ {
		resp = postJSON(t, client, ts.URL+"/v1/indexes", map[string]string{
			"rel": "Products", "attr": "Category",
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("build #%d: status %d", i+1, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp = postJSON(t, client, ts.URL+"/v1/indexes", map[string]string{
		"rel": "Products", "attr": "Product",
	})
	resp.Body.Close()

	// The figure 1 log pins Category and Product, so after ingesting it
	// the planner counters move and the listing shows both indexes.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/ingest", strings.NewReader(figure1Log))
	req.Header.Set("Content-Type", "text/plain")
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = client.Get(ts.URL + "/v1/indexes")
	if err != nil {
		t.Fatal(err)
	}
	list = decode[indexListJSON](t, resp)
	if len(list.Indexes) != 2 {
		t.Fatalf("want 2 indexes listed, got %+v", list.Indexes)
	}
	for _, info := range list.Indexes {
		if info.Rel != "Products" || info.Auto {
			t.Fatalf("unexpected index row %+v", info)
		}
		// Every posting list holds at least its inline chunk of four
		// uint32 positions.
		if info.Keys == 0 || info.Entries == 0 || info.Bytes < 16*info.Keys {
			t.Fatalf("index %s.%s reports no volume: %+v", info.Rel, info.Attr, info)
		}
	}
	if list.Planner.IndexScans == 0 {
		t.Fatalf("ingest did not move the planner counters: %+v", list.Planner)
	}
	// The listing is /v1/indexes's alone.
	noMetricsSection(t, srv, "indexes", "planner")

	// Planner counters are also surfaced in /v1/stats.
	resp, err = client.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decode[map[string]any](t, resp)
	for _, key := range []string{"plannerFullScans", "plannerIndexScans", "plannerPointLookups",
		"plannerAutoBuilds", "plannerBatchPasses", "plannerBatchScans", "plannerRowsScanned", "plannerRowsMatched", "indexes"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("/v1/stats missing %q: %v", key, stats)
		}
	}
	// Posting lists hold every row: no intersections or compactions to count.
	for _, key := range []string{"plannerIntersectScans", "plannerCompactions"} {
		if _, ok := stats[key]; ok {
			t.Errorf("/v1/stats still has %q", key)
		}
	}
	// The engine stores its rows in one partition: no sharding section.
	for _, key := range []string{"shards", "shardRouted", "shardRendezvous", "shardFanout", "rowsPerShard"} {
		if _, ok := stats[key]; ok {
			t.Errorf("/v1/stats still has %q", key)
		}
	}
	if n, _ := stats["indexes"].(float64); n != 2 {
		t.Errorf("/v1/stats indexes = %v, want 2", stats["indexes"])
	}

	// Drop one; dropping it again is a 404 with the typed code.
	req, _ = http.NewRequest("DELETE", ts.URL+"/v1/indexes?rel=Products&attr=Product", nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drop: status %d", resp.StatusCode)
	}
	dropped := decode[map[string]bool](t, resp)
	if !dropped["dropped"] {
		t.Fatalf("drop response %v", dropped)
	}
	req, _ = http.NewRequest("DELETE", ts.URL+"/v1/indexes?rel=Products&attr=Product", nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double drop: status %d, want 404", resp.StatusCode)
	}
	errResp := decode[errorResponse](t, resp)
	if errResp.Error.Code != codeUnknownIndex {
		t.Fatalf("double drop code %q, want %q", errResp.Error.Code, codeUnknownIndex)
	}
}

// TestIndexEndpointErrors covers the request-validation and
// engine-sentinel paths of the index handlers.
func TestIndexEndpointErrors(t *testing.T) {
	srv := New(figure1Engine(t, engine.ModeNaive))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	check := func(resp *http.Response, status int, code string) {
		t.Helper()
		if resp.StatusCode != status {
			t.Fatalf("status %d, want %d", resp.StatusCode, status)
		}
		got := decode[errorResponse](t, resp)
		if got.Error.Code != code {
			t.Fatalf("code %q, want %q", got.Error.Code, code)
		}
	}

	// Build: missing fields, unknown relation, unknown attribute.
	check(postJSON(t, client, ts.URL+"/v1/indexes", map[string]string{"rel": "Products"}),
		http.StatusBadRequest, codeBadRequest)
	check(postJSON(t, client, ts.URL+"/v1/indexes", map[string]string{"rel": "Nope", "attr": "x"}),
		http.StatusNotFound, codeUnknownRelation)
	check(postJSON(t, client, ts.URL+"/v1/indexes", map[string]string{"rel": "Products", "attr": "Nope"}),
		http.StatusNotFound, codeUnknownAttribute)

	// Drop: missing query parameters, unknown relation, missing index.
	for path, want := range map[string]struct {
		status int
		code   string
	}{
		"/v1/indexes?rel=Products":               {http.StatusBadRequest, codeBadRequest},
		"/v1/indexes?rel=Nope&attr=x":            {http.StatusNotFound, codeUnknownRelation},
		"/v1/indexes?rel=Products&attr=Category": {http.StatusNotFound, codeUnknownIndex},
	} {
		req, _ := http.NewRequest("DELETE", ts.URL+path, nil)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		check(resp, want.status, want.code)
	}
}

// TestSnapshotLoadKeepsEngineSettings: the engine a snapshot load swaps
// in takes the settings of the one it replaces, so an in-memory server
// with auto-indexing keeps its advisor — two =-pinned scans after the
// load build the index.
func TestSnapshotLoadKeepsEngineSettings(t *testing.T) {
	src := New(figure1Engine(t, engine.ModeNormalForm), WithLogf(t.Logf))
	defer src.Close()
	snap := serveRaw(src, "GET", "/v1/snapshot", "").Body.String()

	srv := New(engine.OpenEmpty(engine.ModeNormalForm, src.Engine().Schema(), engine.WithAutoIndex(2)), WithLogf(t.Logf))
	defer srv.Close()
	if rec := serveRaw(srv, "POST", "/v1/snapshot", snap); rec.Code != http.StatusOK {
		t.Fatalf("snapshot load: %d %s", rec.Code, rec.Body)
	}
	const scans = "UPDATE Products SET Price = 50 WHERE Category = 'Sport';\nUPDATE Products SET Price = 60 WHERE Category = 'Sport';\n"
	if rec := serveRaw(srv, "POST", "/v1/ingest?syntax=sql", scans); rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}
	var list indexListJSON
	if err := json.Unmarshal(serveRaw(srv, "GET", "/v1/indexes", "").Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Indexes) != 1 || list.Indexes[0].Attr != "Category" || !list.Indexes[0].Auto {
		t.Fatalf("after the load and two pinned scans /v1/indexes lists %+v, want the auto-built Products.Category", list.Indexes)
	}
}
