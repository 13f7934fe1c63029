//go:build !race

package server

// Allocation gate for the what-if read path, next to the engine's
// 0-allocs/op point-read gates (internal/engine/alloc_test.go). The
// claim: one what-if allocates per request and per worker — request
// decode, the valuation map, the chunk result and part lists, worker
// scratch — and nothing per row, so ten times the rows cost (almost)
// the same number of allocations once the buffer pools are warm. Not
// built under the race detector, whose sync.Pool drops a quarter of
// the puts on purpose.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"

	"hyperprov/internal/engine"
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
		run() // fill the chunk-buffer pools
		if w.status != http.StatusOK || w.n < tuples {
			t.Fatalf("%d tuples: what-if answered %d with %d bytes", tuples, w.status, w.n)
		}
		// A collection in the middle would empty the pools and charge
		// the refill to whichever size was being measured.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(5, run), w.n
	}
	small, smallBytes := measure(10_000)
	large, largeBytes := measure(100_000)
	t.Logf("allocs per what-if: %.0f over 10k rows (%d-byte body), %.0f over 100k rows (%d-byte body)", small, smallBytes, large, largeBytes)
	if large-small > 8 {
		t.Errorf("a what-if over 100k rows allocates %.0f times, over 10k rows %.0f: something allocates per row or per chunk", large, small)
	}
}
