package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/wal"
)

// TestIngestResponseBytes: the append-built success body is the one
// json.Encoder wrote for map[string]int{"transactions", "applied",
// "queries"}, in both syntaxes, and large and chunked bodies go through
// the pooled buffer unharmed.
func TestIngestResponseBytes(t *testing.T) {
	srv := New(figure1Engine(t, engine.ModeNormalForm), WithLogf(t.Logf))
	defer srv.Close()
	encoded := func(txns, applied, queries int) string {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(map[string]int{"transactions": txns, "applied": applied, "queries": queries})
		return b.String()
	}
	padded := figure1Log + strings.Repeat("-- "+strings.Repeat("x", 97)+"\n", 3*ingestBufKeep/100)
	cases := []struct {
		name, url, body string
		want            string
	}{
		{"sql", "/v1/ingest", figure1Log, encoded(2, 2, 3)},
		{"empty", "/v1/ingest?syntax=sql", "", encoded(0, 0, 0)},
		{"datalog", "/v1/ingest?syntax=datalog", `Products+,q1("Lego", "Kids", 9):-` + "\n", encoded(1, 1, 1)},
		{"past the pooled size", "/v1/ingest", padded, encoded(2, 2, 3)},
	}
	for _, tc := range cases {
		rec := serveRaw(srv, "POST", tc.url, tc.body)
		if rec.Code != http.StatusOK || rec.Body.String() != tc.want {
			t.Errorf("%s: %d %q, want 200 %q", tc.name, rec.Code, rec.Body.String(), tc.want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", tc.name, ct)
		}
	}
	// Unknown length (chunked): nothing to reserve from.
	req := httptest.NewRequest("POST", "/v1/ingest", struct{ io.Reader }{strings.NewReader(figure1Log)})
	if req.ContentLength != -1 {
		t.Fatalf("ContentLength = %d, want unknown", req.ContentLength)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Body.String() != encoded(2, 2, 3) {
		t.Errorf("chunked: %d %q", rec.Code, rec.Body.String())
	}
}

// widerSchema serves an engine under a schema naming one relation more
// than the engine holds, so a log the parser accepts can still fail to
// apply: the parsers admit only updates db.Update.Validate admits, which
// is the engine's one check.
type widerSchema struct {
	engine.DB
	s *db.Schema
}

func (w widerSchema) Schema() *db.Schema { return w.s }

// TestIngestFailedBatchIsPrefix: an ingest whose transaction 40 of 64
// fails answers applied = 40 and leaves exactly the log prefix: the
// snapshot bytes of a server that ingested transactions 0 to 39 and the
// failing one's query before its failing one.
func TestIngestFailedBatchIsPrefix(t *testing.T) {
	attr := db.Attribute{Name: "K", Kind: db.KindInt}
	schema := db.MustSchema(db.MustRelationSchema("R", attr))
	wider := db.MustSchema(db.MustRelationSchema("R", attr), db.MustRelationSchema("Gone", attr))
	const bad = 40
	var log, prefix strings.Builder
	for i := range 64 {
		fmt.Fprintf(&log, "BEGIN t%d; INSERT INTO R VALUES (%d);", i, i)
		if i <= bad {
			fmt.Fprintf(&prefix, "BEGIN t%d; INSERT INTO R VALUES (%d); COMMIT;\n", i, i)
		}
		if i == bad {
			log.WriteString(" INSERT INTO Gone VALUES (1);")
		}
		log.WriteString(" COMMIT;\n")
	}
	srv := New(widerSchema{engine.OpenEmpty(engine.ModeNormalForm, schema), wider}, WithLogf(t.Logf))
	defer srv.Close()
	rec := serveRaw(srv, "POST", "/v1/ingest", log.String())
	got := decode[errorResponse](t, rec.Result())
	if rec.Code == http.StatusOK || got.Error.Applied == nil || *got.Error.Applied != bad {
		t.Fatalf("%d %s, want an error envelope with applied %d", rec.Code, rec.Body, bad)
	}
	ref := New(widerSchema{engine.OpenEmpty(engine.ModeNormalForm, schema), wider}, WithLogf(t.Logf))
	defer ref.Close()
	if rec := serveRaw(ref, "POST", "/v1/ingest", prefix.String()); rec.Code != http.StatusOK {
		t.Fatalf("reference ingest: %d %s", rec.Code, rec.Body)
	}
	if !bytes.Equal(serveRaw(srv, "GET", "/v1/snapshot", "").Body.Bytes(), serveRaw(ref, "GET", "/v1/snapshot", "").Body.Bytes()) {
		t.Fatal("/v1/snapshot differs from the reference server's, which ingested the prefix")
	}
}

// TestIngestStatsSection: the write path's counters appear in /v1/stats,
// and only there, and move once per request whose body arrived; a
// parse failure counts its body and parse time but applies nothing.
func TestIngestStatsSection(t *testing.T) {
	srv := New(figure1Engine(t, engine.ModeNormalForm), WithLogf(t.Logf))
	defer srv.Close()
	bad := "BEGIN x; DELETE FROM Nope; COMMIT;"
	for _, r := range []struct {
		url, body string
		code      int
	}{
		{"/v1/ingest", figure1Log, http.StatusOK},
		{"/v1/ingest?syntax=sql", figure1Log, http.StatusOK},
		{"/v1/ingest", bad, http.StatusBadRequest},
		{"/v1/ingest?syntax=prolog", figure1Log, http.StatusBadRequest}, // refused before the parser: not counted
	} {
		if rec := serveRaw(srv, "POST", r.url, r.body); rec.Code != r.code {
			t.Fatalf("POST %s: %d, want %d", r.url, rec.Code, r.code)
		}
	}
	noMetricsSection(t, srv, "ingest")
	got := decode[map[string]any](t, serveRaw(srv, "GET", "/v1/stats", "").Result())
	for name, want := range map[string]float64{
		"ingestRequests":  3,
		"ingestTxns":      4,
		"ingestBodyBytes": float64(2*len(figure1Log) + len(bad)),
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	for _, name := range []string{"ingestParseUs", "ingestApplyUs"} {
		if v, ok := got[name].(float64); !ok || v < 0 {
			t.Errorf("%s = %v", name, got[name])
		}
	}
}

// TestBootStatsSection: /v1/stats, and only it, says where the served
// engine's start-up went — one boot section with every stage field, for
// an engine loaded in memory, a bootstrapped store, a recovered one and
// a snapshot swapped in.
func TestBootStatsSection(t *testing.T) {
	fields := []string{"source", "rows", "read_ms", "parse_ms", "build_ms", "checkpoint_ms", "load_ms", "replayed_records", "replay_ms", "total_ms"}
	check := func(srv *Server, source string, positive ...string) {
		t.Helper()
		boot, _ := decode[map[string]any](t, serveRaw(srv, "GET", "/v1/stats", "").Result())["boot"].(map[string]any)
		noMetricsSection(t, srv, "boot")
		if len(boot) != len(fields) || boot["source"] != source || boot["rows"] != 4.0 {
			t.Fatalf("boot = %v, want source %s, 4 rows and the fields %v", boot, source, fields)
		}
		for _, name := range fields {
			if boot[name] == nil {
				t.Errorf("%s: boot has no %s", source, name)
			}
		}
		for _, name := range append(positive, "total_ms") {
			if v, _ := boot[name].(float64); v <= 0 {
				t.Errorf("%s: boot.%s = %v, want it positive", source, name, boot[name])
			}
		}
	}
	mem := New(figure1Engine(t, engine.ModeNormalForm), WithLogf(t.Logf))
	defer mem.Close()
	check(mem, "database", "build_ms")
	snap := serveRaw(mem, "GET", "/v1/snapshot", "").Body.String()
	if rec := serveRaw(mem, "POST", "/v1/snapshot", snap); rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/snapshot: %d %s", rec.Code, rec.Body)
	}
	check(mem, "checkpoint", "load_ms")

	dir := t.TempDir()
	for _, want := range []struct {
		source   string
		positive []string
	}{{"database", []string{"build_ms", "checkpoint_ms"}}, {"checkpoint", []string{"load_ms"}}} {
		st, err := wal.Open(dir, wal.WithMode(engine.ModeNormalForm), wal.WithInitialDatabase(figure1Database(t)))
		if err != nil {
			t.Fatal(err)
		}
		srv := New(st, WithLogf(t.Logf))
		check(srv, want.source, want.positive...)
		srv.Close()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointStatsInWALSection: what a checkpoint took, and how much
// of that it held the store's lock — all a writer can have waited for —
// is in the /v1/stats wal section after it ran, and not in /v1/metrics.
func TestCheckpointStatsInWALSection(t *testing.T) {
	st, err := wal.Open(t.TempDir(), wal.WithMode(engine.ModeNormalForm), wal.WithInitialDatabase(figure1Database(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := New(st, WithLogf(t.Logf))
	defer srv.Close()
	walStats := func() map[string]any {
		return decode[map[string]any](t, serveRaw(srv, "GET", "/v1/stats", "").Result())["wal"].(map[string]any)
	}
	if before := walStats(); before["checkpointLastBytes"] != 0.0 || before["checkpointTotalMs"] != 0.0 {
		t.Fatalf("before any checkpoint: %v", before)
	}
	if rec := serveRaw(srv, "POST", "/v1/ingest", figure1Log); rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	for i := 0; i < 2; i++ {
		if rec := serveRaw(srv, "POST", "/v1/checkpoint", ""); rec.Code != http.StatusOK {
			t.Fatalf("checkpoint: %d %s", rec.Code, rec.Body)
		}
	}
	ckpts, err := filepath.Glob(filepath.Join(st.Dir(), "checkpoint-*.ckpt"))
	if err != nil || len(ckpts) != 1 {
		t.Fatalf("checkpoint files %v (%v), want the last one alone", ckpts, err)
	}
	file, err := os.Stat(ckpts[0])
	if err != nil {
		t.Fatal(err)
	}
	after := walStats()
	if after["checkpointLastBytes"] != float64(file.Size()) {
		t.Errorf("checkpointLastBytes = %v, the checkpoint file has %d bytes", after["checkpointLastBytes"], file.Size())
	}
	last, total := after["checkpointLastMs"].(float64), after["checkpointTotalMs"].(float64)
	if last <= 0 || total < last {
		t.Errorf("checkpointLastMs = %v, checkpointTotalMs = %v after two checkpoints", last, total)
	}
	if held, ok := after["checkpointHeldMs"].(float64); !ok || held <= 0 || held > total {
		t.Errorf("checkpointHeldMs = %v of checkpointTotalMs = %v", after["checkpointHeldMs"], total)
	}
	if after["checkpointsSkipped"] != 0.0 {
		t.Errorf("checkpointsSkipped = %v with no cadence", after["checkpointsSkipped"])
	}
	noMetricsSection(t, srv, "wal")
}
