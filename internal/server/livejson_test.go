package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/upstruct"
	"hyperprov/internal/workload"
)

// nastyStrings are the payloads encoding/json treats specially: quotes
// and backslashes, every control byte, the HTML trio it escapes only
// when asked to, U+2028/U+2029, DEL, multi-byte runes, and invalid
// UTF-8 in several positions.
var nastyStrings = []string{
	"", "plain", `say "hi"`, `back\slash`, `\"`, "tab\there", "line\nfeed", "cr\rlf", "bell\b", "form\ffeed",
	"\x00", "\x01\x02\x1f", "nul\x00mid", "<script>&amp;</script>", "a\u2028b", "\u2029", "\u2027\u202a", "del\x7f",
	"héllo wörld", "日本語", "emoji 🚲", "\xff", "bad\xc3", "\xe2\x80", "ok\xe2\x80\xa8ok", "\xed\xa0\x80", "\xf0\x9f", "mixed\xfe\"\\\n",
}

var edgeInts = []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64, math.MaxInt32, -1 << 53, 1<<53 + 1}

// edgeFloats straddle encoding/json's switches to exponent form (below
// 1e-6, from 1e21) and include both zeros and the extremes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 120.25, 1e-6, 9.999999e-7, 1e-7, 1.5e-9, -2.5e-10, 5e-324,
	1e20, 999999999999999900000, 1e21, 1.2345e21, -1e21, 1e100, math.MaxFloat64, -math.MaxFloat64, 1e6, 1.00004346e+06,
}

func randValue(rng *rand.Rand, kind db.Kind) db.Value {
	switch kind {
	case db.KindInt:
		if rng.Intn(3) == 0 {
			return db.I(edgeInts[rng.Intn(len(edgeInts))])
		}
		return db.I(rng.Int63n(2000) - 1000)
	case db.KindFloat:
		if rng.Intn(2) == 0 {
			return db.F(edgeFloats[rng.Intn(len(edgeFloats))])
		}
		return db.F(math.Ldexp(rng.Float64()-0.5, rng.Intn(160)-80))
	default:
		switch rng.Intn(3) {
		case 0:
			return db.S(nastyStrings[rng.Intn(len(nastyStrings))])
		case 1:
			raw := make([]byte, rng.Intn(12))
			rng.Read(raw)
			return db.S(string(raw))
		}
		return db.S("v" + strconv.Itoa(rng.Intn(500)))
	}
}

// randDatabase builds a seeded random schema and instance. Relation
// and attribute names need escaping too, declaration order is not
// sorted-name order (encoding/json sorts the relations map; the engine
// streams in schema order), "big" spans several walker chunks and
// "Empty" has no tuple at all. Every relation leads with a unique int
// id so generated updates can pin one tuple.
func randDatabase(t *testing.T, rng *rand.Rand) *db.Database {
	t.Helper()
	names := []string{"zeta", "big", `we"ird<&>\rel`, "Empty", "alpha\u2028"}
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	if names[0] == "Empty" { // sorted order would be declaration order's prefix
		names[0], names[1] = names[1], names[0]
	}
	var rels []*db.RelationSchema
	for _, name := range names {
		attrs := []db.Attribute{{Name: "id", Kind: db.KindInt}}
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			attr := db.Attribute{Name: fmt.Sprintf("a%d", i), Kind: db.Kind(rng.Intn(3))}
			if rng.Intn(4) == 0 {
				attr.Name = fmt.Sprintf("a\"%d\t<", i)
			}
			attrs = append(attrs, attr)
		}
		rels = append(rels, db.MustRelationSchema(name, attrs...))
	}
	d := db.NewDatabase(db.MustSchema(rels...))
	for _, rel := range rels {
		n := 1 + rng.Intn(40)
		switch rel.Name {
		case "big":
			n = 2500
		case "Empty":
			n = 0
		}
		for id := 0; id < n; id++ {
			if err := d.InsertTuple(rel.Name, randTuple(rng, rel, id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d
}

func randTuple(rng *rand.Rand, rel *db.RelationSchema, id int) db.Tuple {
	tp := db.Tuple{db.I(int64(id))}
	for _, a := range rel.Attrs[1:] {
		tp = append(tp, randValue(rng, a.Kind))
	}
	return tp
}

// randTxns generates labelled transactions of inserts, pinned deletes
// and pinned modifications over the non-empty relations, so later
// epochs hold tombstones and rewritten rows.
func randTxns(rng *rand.Rand, d *db.Database, n int) []db.Transaction {
	var rels []*db.RelationSchema
	for _, name := range d.Schema().Names() {
		if name != "Empty" {
			rels = append(rels, d.Schema().Relation(name))
		}
	}
	pin := func(rel *db.RelationSchema) db.Pattern {
		p := db.AllPattern(len(rel.Attrs))
		p[0] = db.Const(db.I(int64(rng.Intn(d.Instance(rel.Name).Len() + 1))))
		return p
	}
	txns := make([]db.Transaction, n)
	for i := range txns {
		txns[i].Label = fmt.Sprintf("q%d", i)
		for k, m := 0, 1+rng.Intn(4); k < m; k++ {
			rel := rels[rng.Intn(len(rels))]
			switch rng.Intn(3) {
			case 0:
				txns[i].Updates = append(txns[i].Updates, db.Insert(rel.Name, randTuple(rng, rel, 100000+i*10+k)))
			case 1:
				txns[i].Updates = append(txns[i].Updates, db.Delete(rel.Name, pin(rel)))
			default:
				set := make([]db.SetClause, len(rel.Attrs))
				at := 1 + rng.Intn(len(rel.Attrs)-1)
				set[at] = db.SetTo(randValue(rng, rel.Attrs[at].Kind))
				txns[i].Updates = append(txns[i].Updates, db.Modify(rel.Name, pin(rel), set))
			}
		}
	}
	return txns
}

// oracleBody is the response the replaced materializing path wrote.
func oracleBody(d *db.Database) []byte {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, dbJSON(d))
	return rec.Body.Bytes()
}

// TestLiveJSONDifferential requires the fused kernel's bodies to be
// byte-identical to the oracle (sequential BoolRestrict on the plain
// engine → dbJSON → json.Encoder) over seeded random schemas and
// values × {plain engine, wal.Store, wal.Follower} × {live,
// ?as_of=} × workers {1,2,7} × the three endpoints, with
// Content-Length set to the body's length when the body fits the first
// window and absent (a chunked body) when it does not. At workers=7
// every body fits; at 1 and 2 the "big" relation passes the window.
func TestLiveJSONDifferential(t *testing.T) {
	covered := map[bool]bool{}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			initial := randDatabase(t, rng)
			txns := randTxns(rng, initial, 30)
			ctx := context.Background()

			plain := engine.Open(engine.ModeNormalForm, initial)
			_, store, _, follower := startLeaderPairOn(t, initial)
			for _, e := range []engine.DB{plain, store} {
				if err := e.ApplyAll(ctx, txns); err != nil {
					t.Fatal(err)
				}
			}
			waitFollowerLSN(t, follower, store.Stats().LSN)

			// Time travel to the state after half the transactions. A
			// follower bootstrapped from a checkpoint spends one epoch on
			// restoring it, so its epochs are the leader's shifted by a
			// constant: count back from each engine's own horizon.
			behind := uint64(len(txns) - len(txns)/2)
			asOf := func(e engine.DB) uint64 { return e.MVCCStats().HorizonEpoch - behind }
			deletion := deletionRequest{Tuples: []string{"t0", "t3", "t1500", "t2510"}}
			abort := abortRequest{Labels: []string{"q1", "q7", fmt.Sprintf("q%d", len(txns)-1)}}
			dead := func(names []string, annot func(string) core.Annot) upstruct.Env[bool] {
				m := make(map[core.Annot]bool)
				for _, n := range names {
					m[annot(n)] = false
				}
				return upstruct.MapEnv(m, true)
			}
			endpoints := []struct {
				method, path string
				body         any
				env          upstruct.Env[bool]
			}{
				{"GET", "/v1/db", nil, func(core.Annot) bool { return true }},
				{"POST", "/v1/whatif/deletion", deletion, dead(deletion.Tuples, core.TupleAnnot)},
				{"POST", "/v1/whatif/abort", abort, dead(abort.Labels, core.QueryAnnot)},
			}
			engines := []struct {
				name string
				e    engine.DB
			}{{"plain", plain}, {"wal.Store", store}, {"wal.Follower", follower}}

			for _, ep := range endpoints {
				wants := map[bool][]byte{
					false: oracleBody(engine.BoolRestrict(plain, ep.env)),
					true:  oracleBody(engine.BoolRestrict(plain.At(asOf(plain)), ep.env)),
				}
				if bytes.Equal(wants[false], wants[true]) {
					t.Fatalf("%s: live and as_of oracles coincide; the test would not tell them apart", ep.path)
				}
				for _, eng := range engines {
					srv := New(eng.e, WithLogf(t.Logf))
					for past, want := range wants {
						for _, workers := range []int{1, 2, 7} {
							url := fmt.Sprintf("%s?workers=%d", ep.path, workers)
							if past {
								url += fmt.Sprintf("&as_of=%d", asOf(eng.e))
							}
							rec := serveOnce(t, srv, ep.method, url, ep.body)
							name := fmt.Sprintf("%s %s on %s", ep.method, url, eng.name)
							if rec.Code != http.StatusOK {
								t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body)
							}
							if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
								t.Fatalf("%s: body differs from the oracle at byte %d:\n got …%q\nwant …%q",
									name, firstDiff(got, want), around(got, firstDiff(got, want)), around(want, firstDiff(got, want)))
							}
							r := engine.Reader(eng.e)
							if past {
								r = eng.e.At(asOf(eng.e))
							}
							first, chunks := firstWindow(t, r, workers)
							fits := first == chunks
							covered[fits] = true
							wantCL := ""
							if fits {
								wantCL = strconv.Itoa(len(want))
							}
							if cl := rec.Header().Get("Content-Length"); cl != wantCL {
								t.Fatalf("%s: Content-Length %q with a %d-byte body that fits the first window: %v", name, cl, len(want), fits)
							}
							if fits != (workers == 7) {
								t.Fatalf("%s: the body fits the first window: %v; the test wants it to exactly at workers=7", name, fits)
							}
							if !numTuplesLast.Match(rec.Body.Bytes()) {
								t.Fatalf("%s: numTuples is not the final field", name)
							}
						}
					}
					srv.Close()
				}
			}
		})
	}
	if !covered[true] || !covered[false] {
		t.Errorf("bodies that fit the first window covered: %v, bodies streamed past it: %v", covered[true], covered[false])
	}
}

// firstWindow reports how many chunks the first emit of a stream over r
// with workers carries (its first window, or every chunk) and how many
// the stream cuts.
func firstWindow(t *testing.T, r engine.Reader, workers int) (first, chunks int) {
	t.Helper()
	_, err := engine.LiveStream(context.Background(), r, upstruct.Dead(), workers, r.Schema().Names(),
		func(engine.Chunk[struct{}], engine.LiveRows) {}, func(ready []engine.Chunk[struct{}], _ bool) error {
			if chunks == 0 {
				first = len(ready)
			}
			chunks += len(ready)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return first, chunks
}

// numTuplesLast matches a body whose final field is the tuple count —
// what clients that do not parse megabytes of JSON rely on.
var numTuplesLast = regexp.MustCompile(`\},"numTuples":\d+\}\n$`)

// serveOnce drives the server's root handler in-process with an
// optional JSON body.
func serveOnce(t *testing.T, srv *Server, method, url string, body any) *httptest.ResponseRecorder {
	t.Helper()
	if body == nil {
		return serveRaw(srv, method, url, "")
	}
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return serveRaw(srv, method, url, string(raw))
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func around(b []byte, at int) []byte {
	return b[max(0, at-40):min(len(b), at+40)]
}

// TestUnencodableFloatAnswers500 is the regression for NaN/±Inf values
// (reachable through CSV load: db.ParseValue accepts them). The old
// path answered 200 with an empty body because json.Encoder failed
// after WriteHeader; the kernel encodes first and answers the typed
// 500 naming relation and attribute.
func TestUnencodableFloatAnswers500(t *testing.T) {
	for _, bad := range []string{"NaN", "+Inf", "-Inf"} {
		v, err := db.ParseValue(db.KindFloat, bad)
		if err != nil {
			t.Fatal(err)
		}
		schema := db.MustSchema(db.MustRelationSchema("Readings",
			db.Attribute{Name: "sensor", Kind: db.KindString},
			db.Attribute{Name: "celsius", Kind: db.KindFloat}))
		d := db.NewDatabase(schema)
		for i, val := range []db.Value{db.F(20.5), v, db.F(21)} {
			if err := d.InsertTuple("Readings", db.Tuple{db.S(fmt.Sprintf("s%d", i)), val}); err != nil {
				t.Fatal(err)
			}
		}
		srv := New(engine.New(engine.ModeNormalForm, d), WithLogf(t.Logf))
		ts := httptest.NewServer(srv.Handler())
		resp, err := ts.Client().Get(ts.URL + "/v1/db")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("%s: /v1/db answered %d, want 500", bad, resp.StatusCode)
		}
		body := decode[errorResponse](t, resp)
		if body.Error.Code != codeInternal || !strings.Contains(body.Error.Message, "Readings") || !strings.Contains(body.Error.Message, "celsius") {
			t.Fatalf("%s: envelope %+v does not name relation and attribute", bad, body.Error)
		}
		// The what-if that drops the offending tuple encodes fine.
		resp = postJSON(t, ts.Client(), ts.URL+"/v1/whatif/deletion", deletionRequest{Tuples: []string{"t1"}})
		if got := decode[databaseJSON](t, resp); resp.StatusCode != http.StatusOK || got.NumTuples != 2 {
			t.Fatalf("%s: deletion of the bad tuple answered %d with %d tuples", bad, resp.StatusCode, got.NumTuples)
		}
		ts.Close()
		srv.Close()
	}
}

// TestWhatIfErrorAfterFirstByteAborts: a NaN in a row past the first
// window is found after the 200 header and the first chunks are on the
// wire. The connection is aborted, so the client's read of the chunked
// body fails instead of returning a body that parses, whatifAborted
// counts it, and the server goes on answering.
func TestWhatIfErrorAfterFirstByteAborts(t *testing.T) {
	const rows, bad = 5000, 4500 // the bad row is in chunk 4; the window at workers=2 is chunks 0–3
	nan, err := db.ParseValue(db.KindFloat, "NaN")
	if err != nil {
		t.Fatal(err)
	}
	schema := db.MustSchema(db.MustRelationSchema("Readings",
		db.Attribute{Name: "sensor", Kind: db.KindString},
		db.Attribute{Name: "celsius", Kind: db.KindFloat}))
	d := db.NewDatabase(schema)
	for i := 0; i < rows; i++ {
		v := db.F(20 + float64(i%10)/4)
		if i == bad {
			v = nan
		}
		if err := d.InsertTuple("Readings", db.Tuple{db.S(fmt.Sprintf("s%05d", i)), v}); err != nil {
			t.Fatal(err)
		}
	}
	e := engine.New(engine.ModeNormalForm, d)
	if first, _ := firstWindow(t, e, 2); first > bad/1024 {
		t.Fatalf("the bad row's chunk %d is inside the first window of %d", bad/1024, first)
	}
	srv := New(e, WithLogf(t.Logf))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/db?workers=2")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.ContentLength != -1 {
		t.Fatalf("/v1/db answered %d with Content-Length %d, want a chunked 200", resp.StatusCode, resp.ContentLength)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("reading the body: %v after %d bytes, want io.ErrUnexpectedEOF", err, len(got))
	}
	if json.Valid(got) {
		t.Fatalf("the truncated body parses")
	}
	if n := srv.whatif.aborted.Load(); n != 1 {
		t.Errorf("whatifAborted = %d, want 1", n)
	}
	// The what-if without the bad row streams whole.
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/whatif/deletion?workers=2", deletionRequest{Tuples: []string{fmt.Sprintf("t%d", bad)}})
	if got := decode[databaseJSON](t, resp); resp.StatusCode != http.StatusOK || got.NumTuples != rows-1 {
		t.Fatalf("deletion of the bad tuple answered %d with %d tuples", resp.StatusCode, got.NumTuples)
	}
	if n := srv.whatif.streamed.Load(); n != 1 {
		t.Errorf("whatifStreamed = %d, want 1", n)
	}
	// A body past the first window that is small enough for net/http to
	// size on its own is chunked all the same.
	var dead deletionRequest
	for i := 1; i < rows; i++ {
		dead.Tuples = append(dead.Tuples, fmt.Sprintf("t%d", i))
	}
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/whatif/deletion?workers=2", dead)
	if got := decode[databaseJSON](t, resp); resp.StatusCode != http.StatusOK || got.NumTuples != 1 || resp.ContentLength != -1 {
		t.Fatalf("a one-tuple what-if past the first window answered %d with %d tuples and Content-Length %d, want a chunked 200",
			resp.StatusCode, got.NumTuples, resp.ContentLength)
	}
	if n := srv.whatif.streamed.Load(); n != 2 {
		t.Errorf("whatifStreamed = %d, want 2", n)
	}
}

// TestWhatIfStreamClientGone: a client that reads the first KiB of a
// 100 k-row what-if and hangs up neither keeps the handler running nor
// leaves a worker behind.
func TestWhatIfStreamClientGone(t *testing.T) {
	initial, txns, err := workload.Generate(workload.Config{
		Tuples: 100_000, Pool: 2000, Group: 1, Updates: 20, QueriesPerTxn: 1, MergeRatio: 0.1, Seed: 7,
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
	returned := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		defer func() { returned <- struct{}{} }()
		srv.Handler().ServeHTTP(w, req)
	}))
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	base := runtime.NumGoroutine()

	resp, err := client.Post(ts.URL+"/v1/whatif/abort?workers=2", "application/json",
		strings.NewReader(`{"labels":["`+txns[0].Label+`"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 1024)); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, reading the first KiB: %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("the handler is still running after the client hung up")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the request", runtime.NumGoroutine(), base)
		}
	}
	t.Logf("whatifAborted = %d, whatifRequests = %d", srv.whatif.aborted.Load(), srv.whatif.requests.Load())
}
