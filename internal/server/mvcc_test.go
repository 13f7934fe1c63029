package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hyperprov/internal/engine"
	"hyperprov/internal/parser"
	"hyperprov/internal/provstore"
)

func getBytes(t *testing.T, client *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestAsOfEndpoints drives the ?as_of= time-travel parameter: reads
// against an old epoch must match a fresh engine that never saw the
// later transactions, the final epoch must match the live reads, and
// out-of-range or malformed epochs answer 400.
func TestAsOfEndpoints(t *testing.T) {
	e := figure1Engine(t, engine.ModeNormalForm)
	srv := New(e, WithLogf(t.Logf))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// Epoch 0 is the initial load; the two example transactions land in
	// epochs 1 and 2 (one batch each).
	for _, frag := range strings.SplitAfter(figure1Log, "COMMIT;") {
		if strings.TrimSpace(frag) == "" {
			continue
		}
		resp, err := client.Post(ts.URL+"/v1/ingest?syntax=sql", "text/plain", strings.NewReader(frag))
		if err != nil {
			t.Fatal(err)
		}
		ing := decode[map[string]int](t, resp)
		if ing["applied"] != ing["transactions"] {
			t.Fatalf("ingest reported %v: applied != transactions", ing)
		}
	}

	stats := decode[map[string]any](t, mustGet(t, client, ts.URL+"/v1/stats"))
	if got := stats["mvccHorizonEpoch"].(float64); got != 2 {
		t.Fatalf("mvccHorizonEpoch = %v, want 2", got)
	}
	if got := stats["engineGeneration"].(float64); got != 1 {
		t.Fatalf("engineGeneration = %v, want 1", got)
	}
	if stats["mvccVersions"].(float64) <= 0 || stats["mvccEpochs"].(float64) < 2 {
		t.Fatalf("implausible mvcc counters: %v", stats)
	}

	// The initial database, as served by a fresh engine that applied
	// nothing, must be exactly what ?as_of=0 answers now.
	fresh := figure1Engine(t, engine.ModeNormalForm)
	freshSrv := New(fresh, WithLogf(t.Logf))
	freshTS := httptest.NewServer(freshSrv.Handler())
	defer freshTS.Close()
	_, want := getBytes(t, freshTS.Client(), freshTS.URL+"/v1/db")
	status, got := getBytes(t, client, ts.URL+"/v1/db?as_of=0")
	if status != http.StatusOK {
		t.Fatalf("db?as_of=0: status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("db?as_of=0 differs from the un-updated engine:\ngot:  %s\nwant: %s", got, want)
	}

	// The final epoch is the live state, for /v1/db and the snapshot.
	_, live := getBytes(t, client, ts.URL+"/v1/db")
	if _, at2 := getBytes(t, client, ts.URL+"/v1/db?as_of=2"); !bytes.Equal(at2, live) {
		t.Fatalf("db?as_of=2 differs from live db")
	}
	_, liveSnap := getBytes(t, client, ts.URL+"/v1/snapshot")
	if _, at2 := getBytes(t, client, ts.URL+"/v1/snapshot?as_of=2"); !bytes.Equal(at2, liveSnap) {
		t.Fatalf("snapshot?as_of=2 differs from live snapshot")
	}
	if _, at0 := getBytes(t, client, ts.URL+"/v1/snapshot?as_of=0"); bytes.Equal(at0, liveSnap) {
		t.Fatalf("snapshot?as_of=0 unexpectedly equals the live snapshot")
	}

	// Annotation lookup at epoch 1: the price update of transaction pp
	// has not happened yet, so the pre-update tuple is still found.
	reqBody := annotationRequest{Rel: "Products", Tuple: []any{"Tennis Racket", "Sport", 70}}
	resp := postJSON(t, client, ts.URL+"/v1/annotation?as_of=1", reqBody)
	ann := decode[annotationResponse](t, resp)
	if !ann.Found || !ann.Live {
		t.Fatalf("annotation?as_of=1 for the pre-update tuple: %+v", ann)
	}

	// Out-of-range and malformed epochs.
	for _, q := range []string{"as_of=3", "as_of=xyz", "as_of=-1"} {
		status, body := getBytes(t, client, ts.URL+"/v1/db?"+q)
		if status != http.StatusBadRequest {
			t.Fatalf("db?%s: status %d, want 400 (%s)", q, status, body)
		}
	}

	// What-if endpoints accept as_of too.
	resp = postJSON(t, client, ts.URL+"/v1/whatif/abort?as_of=1", abortRequest{Labels: []string{"p"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("whatif/abort?as_of=1: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func mustGet(t *testing.T, client *http.Client, url string) *http.Response {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestSnapshotLoadSwapRace is the satellite regression for the engine
// swap: slow readers racing POST /v1/snapshot must each stream one
// consistent engine — every GET /v1/snapshot response is byte-equal to
// one of the two snapshots being alternated, never a mix — and the
// generation counter ticks once per load. Run under -race this also
// proves the lock-free swap publishes safely.
func TestSnapshotLoadSwapRace(t *testing.T) {
	mkSnap := func(prices string) []byte {
		e := figure1Engine(t, engine.ModeNormalForm)
		txn := fmt.Sprintf("BEGIN q; UPDATE Products SET Price = %s WHERE Category = 'Sport'; COMMIT;", prices)
		if err := ingestLog(e, txn); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := provstore.SaveSnapshot(&buf, e); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	snapA, snapB := mkSnap("11"), mkSnap("22")
	if bytes.Equal(snapA, snapB) {
		t.Fatal("test snapshots are identical")
	}

	srv := New(figure1Engine(t, engine.ModeNormalForm), WithLogf(t.Logf))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// Establish a known baseline before racing.
	resp, err := client.Post(ts.URL+"/v1/snapshot", "application/octet-stream", bytes.NewReader(snapA))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	const loads = 24
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				status, got := getBytes(t, client, ts.URL+"/v1/snapshot")
				if status != http.StatusOK {
					t.Errorf("snapshot: status %d", status)
					return
				}
				if !bytes.Equal(got, snapA) && !bytes.Equal(got, snapB) {
					t.Errorf("snapshot response matches neither engine (%d bytes)", len(got))
					return
				}
			}
		}()
	}
	for i := 0; i < loads; i++ {
		body := snapA
		if i%2 == 0 {
			body = snapB
		}
		resp, err := client.Post(ts.URL+"/v1/snapshot", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("snapshot load %d: status %d", i, resp.StatusCode)
		}
	}
	close(stop)
	wg.Wait()

	if got, want := srv.EngineGeneration(), uint64(1+1+loads); got != want {
		t.Fatalf("EngineGeneration = %d, want %d (1 initial + %d loads)", got, want, 1+loads)
	}
	stats := decode[map[string]any](t, mustGet(t, client, ts.URL+"/v1/stats"))
	if got := uint64(stats["engineGeneration"].(float64)); got != 2+loads {
		t.Fatalf("stats engineGeneration = %d, want %d", got, 2+loads)
	}
}

// TestSnapshotLoadIgnoresShardCount: ?shards= is no longer read. A load
// that names the largest count still answers 200, allocates nothing per
// "shard" — a client once chose an allocation of about 900 bytes a shard
// — and serves the bytes it was given.
func TestSnapshotLoadIgnoresShardCount(t *testing.T) {
	srv := New(figure1Engine(t, engine.ModeNormalForm), WithLogf(t.Logf))
	defer srv.Close()
	snap := serveRaw(srv, "GET", "/v1/snapshot", "").Body.String()
	gen := srv.EngineGeneration()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := serveRaw(srv, "POST", "/v1/snapshot?shards=2147483647", snap)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusOK {
		t.Fatalf("%d %s, want 200", rec.Code, rec.Body)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 256<<10 {
		t.Errorf("the load allocated %d bytes", alloc)
	}
	if srv.EngineGeneration() != gen+1 {
		t.Errorf("engine generation %d after the load, want %d", srv.EngineGeneration(), gen+1)
	}
	if got := serveRaw(srv, "GET", "/v1/snapshot", "").Body.String(); got != snap {
		t.Error("the loaded engine serves other snapshot bytes")
	}
}

// ingestLog applies a SQL log directly to an engine (test helper).
func ingestLog(e engine.DB, src string) error {
	txns, err := parser.ParseSQLLog(e.Schema(), src)
	if err != nil {
		return err
	}
	return e.ApplyAll(context.Background(), txns)
}
