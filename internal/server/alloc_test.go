package server

// Allocation gate for the what-if read path, next to the engine's
// 0-allocs/op point-read gates (internal/engine/alloc_test.go). The
// claim: one what-if allocates per request and per worker — request
// decode, the valuation map, the window's slots and channels, worker
// scratch — and nothing per row or per chunk, so ten times the rows
// cost (almost) the same number of allocations once the free lists
// are warm, and (almost) the same bytes when they are cold.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"hyperprov/internal/benchutil"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/parser"
	"hyperprov/internal/wal"
	"hyperprov/internal/workload"
)

// discardWriter is a ResponseWriter that keeps nothing, so the
// recorder's growing body buffer does not count against the handler.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

func TestWhatIfAllocsIndependentOfRows(t *testing.T) {
	var coldBytes [2]uint64
	measure := func(tuples int) (allocs float64, bodyBytes int) {
		initial, txns, err := workload.Generate(workload.Config{
			Tuples: tuples, Pool: tuples / 50, Group: 1, Updates: tuples / 5,
			QueriesPerTxn: 10, MergeRatio: 0.1, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		e := engine.New(engine.ModeNormalForm, initial)
		if err := e.ApplyAll(context.Background(), txns); err != nil {
			t.Fatal(err)
		}
		srv := New(e, WithLogf(t.Logf))
		defer srv.Close()
		h := srv.Handler()
		body := `{"labels":["` + txns[len(txns)/2].Label + `"]}`
		w := &discardWriter{header: http.Header{}}
		run := func() {
			w.status, w.n = 0, 0
			h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/whatif/abort?workers=2", strings.NewReader(body)))
		}
		run() // fill the free lists
		if w.status != http.StatusOK || w.n < tuples {
			t.Fatalf("%d tuples: what-if answered %d with %d bytes", tuples, w.status, w.n)
		}
		// Cold: the free lists are emptied, and two collections empty
		// the standard library's pools (net/http's, encoding/json's), so
		// this what-if pays for every buffer and kernel it uses.
		liveBufs.Empty()
		engine.EmptyScratch()
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		coldBytes[min(tuples/100_000, 1)] = after.TotalAlloc - before.TotalAlloc
		// A collection in the middle would empty the standard library's
		// pools and charge the refill to whichever size was measured.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(5, run), w.n
	}
	small, smallBytes := measure(10_000)
	large, largeBytes := measure(100_000)
	t.Logf("allocs per what-if: %.0f over 10k rows (%d-byte body), %.0f over 100k rows (%d-byte body)", small, smallBytes, large, largeBytes)
	if large-small > 8 {
		t.Errorf("a what-if over 100k rows allocates %.0f times, over 10k rows %.0f: something allocates per row or per chunk", large, small)
	}
	// Cold, a what-if allocates its window, not its body: one
	// buffer per chunk was ≈ 7.7 MB over 100k rows.
	smallCold, largeCold := int64(coldBytes[0]), int64(coldBytes[1])
	t.Logf("bytes per cold what-if: %d over 10k rows, %d over 100k rows", smallCold, largeCold)
	if largeCold > 1<<20 {
		t.Errorf("a what-if over 100k rows (a %d-byte body) allocates %d bytes cold, want at most 1 MiB", largeBytes, largeCold)
	}
	if d := largeCold - smallCold; d > 256<<10 || d < -256<<10 {
		t.Errorf("cold, a what-if allocates %d bytes over 100k rows and %d over 10k: more than 256 KiB apart", largeCold, smallCold)
	}
}

// allocMeter is a store that reads what its own ApplyBatch allocates,
// so a test can subtract it from what the handler around it allocates.
type allocMeter struct {
	engine.DB
	before, after  runtime.MemStats
	bytes, mallocs uint64
}

func (m *allocMeter) ApplyBatch(ctx context.Context, txns []db.Transaction) (int, error) {
	runtime.ReadMemStats(&m.before)
	n, err := m.DB.ApplyBatch(ctx, txns)
	runtime.ReadMemStats(&m.after)
	m.bytes += m.after.TotalAlloc - m.before.TotalAlloc
	m.mallocs += m.after.Mallocs - m.before.Mallocs
	return n, err
}

// TestIngestAllocsPerTxn gates the decode stage: what /v1/ingest
// allocates around ApplyBatch — the chain, the body read, the parse,
// the ack — per transaction of the wire benchmark's oltp_point traffic
// (benchutil.TPCCOpList, one SQL body per transaction), through the
// real handler behind a wal.Store. With the body copied into a string,
// a GC-owned parse and http.TimeoutHandler buffering the ack this read
// 11.54 kB and 55.8 mallocs, with the endpoint's two counter names
// concatenated and looked up per request 1.88 and 29.9, and with the
// inserted rows allocated one by one for the engine to keep 1.74 and
// 20.9. Now that the engine keeps only the labels, the rows come from
// the recycled parser's slabs and it reads 0.93 and 15.0 — the labels, the
// request's routing, context, deadline and wrappers — gated 10 % above.
func TestIngestAllocsPerTxn(t *testing.T) {
	if testing.Short() {
		t.Skip("4 000 transactions behind a persistent store")
	}
	initial, txns, err := benchutil.TPCCOpList(1, 4000)
	if err != nil {
		t.Fatal(err)
	}
	st, err := wal.Open(t.TempDir(), wal.WithMode(engine.ModeNormalForm), wal.WithInitialDatabase(initial),
		wal.WithSync(wal.SyncNever), wal.WithEngineOptions(engine.WithAutoIndex(4)))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	meter := &allocMeter{DB: st}
	srv := New(meter, WithLogf(t.Logf))
	defer srv.Close()
	h := srv.Handler()
	reqs := make([]*http.Request, len(txns))
	for i := range txns {
		body, err := parser.FormatSQLLog(initial.Schema(), txns[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = httptest.NewRequest("POST", "/v1/ingest", strings.NewReader(body))
	}
	w := &discardWriter{header: http.Header{}}
	const warm = 100 // the recycled parser's slabs and the body buffer reach their size
	var before, after runtime.MemStats
	for i, req := range reqs {
		if i == warm {
			meter.bytes, meter.mallocs = 0, 0
			runtime.ReadMemStats(&before)
		}
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("transaction %d: %d", i, w.status)
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(len(reqs) - warm)
	kB := float64(after.TotalAlloc-before.TotalAlloc-meter.bytes) / 1024 / n
	mallocs := float64(after.Mallocs-before.Mallocs-meter.mallocs) / n
	t.Logf("around ApplyBatch: %.2f kB and %.1f mallocs per transaction (ApplyBatch itself: %.2f kB and %.1f)",
		kB, mallocs, float64(meter.bytes)/1024/n, float64(meter.mallocs)/n)
	if kB > 1.02 || mallocs > 16.5 {
		t.Errorf("/v1/ingest allocates %.2f kB and %.1f mallocs per transaction around ApplyBatch, want at most 1.02 kB and 16.5", kB, mallocs)
	}
}

// TestStatsScrapeAllocs: GET /v1/stats allocates its response and, for
// the DAG count, one bit per node id in use — nothing per row and no
// table entry per node, so an operator (or a benchmark harness) polling
// it costs the server nothing to speak of. On this state the
// pointer-keyed set ProvDAGSize counted with allocated 9 048 kB per
// scrape.
func TestStatsScrapeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("5 000 transactions over 50 000 rows")
	}
	initial, txns, err := workload.Generate(workload.Config{
		Tuples: 50000, Pool: 1050, Group: 1, Updates: 10000, QueriesPerTxn: 2, MergeRatio: 0.1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.ModeNormalForm, initial, engine.WithAutoIndex(4))
	if err := e.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	if e.NumRows() < 50000 || len(txns) < 5000 {
		t.Fatalf("state of %d rows after %d transactions is too small to show a per-row cost", e.NumRows(), len(txns))
	}
	srv := New(e, WithLogf(t.Logf))
	defer srv.Close()
	h := srv.Handler()
	scrape := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/stats", nil))
		return w
	}
	w := scrape()
	var stats struct {
		Rows, Support         int
		ProvSize, ProvDagSize int64
	}
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil || w.Code != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d, %v", w.Code, err)
	}
	if stats.Rows != e.NumRows() || stats.Support != e.SupportSize() || stats.ProvSize != e.ProvSize() || stats.ProvDagSize != e.ProvDAGSize() {
		t.Fatalf("stats report %+v, the engine holds %d rows, %d in support, %d tree nodes, %d DAG nodes",
			stats, e.NumRows(), e.SupportSize(), e.ProvSize(), e.ProvDAGSize())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const scrapes = 5
	for i := 0; i < scrapes; i++ {
		scrape()
	}
	runtime.ReadMemStats(&after)
	kB := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / scrapes
	t.Logf("a scrape of %d rows and %d DAG nodes allocates %.0f kB", stats.Rows, stats.ProvDagSize, kB)
	if kB > 256 {
		t.Errorf("GET /v1/stats allocates %.0f kB, want at most 256", kB)
	}
}

// TestRoutedRequestAllocs: a request is resolved against the route
// table once. GET /healthz does nothing but answer, so what it
// allocates is the routing around a handler — the mux's match, the
// deadline context, the wrappers, the JSON answer: 14 allocations.
// Resolving every request twice (a fallback handler asking an inner mux
// for its pattern and then serving through it) made it 19.
func TestRoutedRequestAllocs(t *testing.T) {
	srv := New(figure1Engine(t, engine.ModeNormalForm), WithLogf(t.Logf))
	defer srv.Close()
	h := srv.Handler()
	w := &discardWriter{header: http.Header{}}
	req := httptest.NewRequest("GET", "/healthz", nil)
	allocs := testing.AllocsPerRun(200, func() {
		w.status = 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("GET /healthz answered %d", w.status)
		}
	})
	t.Logf("a routed GET /healthz allocates %.0f times", allocs)
	if allocs > 15 {
		t.Errorf("a routed GET /healthz allocates %.0f times, want at most 15: is the request resolved twice?", allocs)
	}
}
