package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/parser"
)

// The tests build plans at a hundredth of the benchmark's size
// (run_seconds is 12), over a twentieth of its synthetic tables.
const (
	smokeSeconds = 0.12
	smokeData    = 0.05
)

// planDigest hashes everything the load generator would send.
func planDigest(p *plan) [32]byte {
	h := sha256.New()
	for _, list := range [][]ingest{p.pre, p.writes} {
		for i := range list {
			h.Write(list[i].body)
			h.Write([]byte{0})
		}
	}
	for i := range p.reads {
		fmt.Fprintf(h, "%d|%s|%v|%v\n", p.reads[i].kind, p.reads[i].rel, p.reads[i].tuple, p.reads[i].names)
	}
	subs, _ := json.Marshal(p.subs)
	h.Write(subs)
	return [32]byte(h.Sum(nil))
}

func TestSameSeedSameOps(t *testing.T) {
	for _, name := range workloadNames {
		a, err := buildPlan(name, 7, smokeSeconds, smokeData)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildPlan(name, 7, smokeSeconds, smokeData)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildPlan(name, 8, smokeSeconds, smokeData)
		if err != nil {
			t.Fatal(err)
		}
		if planDigest(a) != planDigest(b) {
			t.Errorf("%s: the same seed generated different op lists", name)
		}
		if planDigest(a) == planDigest(c) {
			t.Errorf("%s: seeds 7 and 8 generated the same op list", name)
		}
		if len(a.writes) == 0 || len(a.reads)+len(a.subs) == 0 {
			t.Errorf("%s: empty plan: %d writes, %d reads, %d subscriptions", name, len(a.writes), len(a.reads), len(a.subs))
		}
	}
}

// sameUpdate compares two updates up to the names of pattern
// variables, which the parser derives from attribute names.
func sameUpdate(a, b db.Update) bool {
	if a.Kind != b.Kind || a.Rel != b.Rel || !a.Row.Equal(b.Row) || len(a.Sel) != len(b.Sel) || len(a.Set) != len(b.Set) {
		return false
	}
	for i := range a.Sel {
		x, y := a.Sel[i], b.Sel[i]
		if x.IsConst() != y.IsConst() || x.IsConst() && x.Value() != y.Value() || len(x.NotEq()) != len(y.NotEq()) {
			return false
		}
		for j := range x.NotEq() {
			if x.NotEq()[j] != y.NotEq()[j] {
				return false
			}
		}
	}
	for i := range a.Set {
		if a.Set[i] != b.Set[i] {
			return false
		}
	}
	return true
}

// TestBodiesParseBack pins the float rendering: every generated body
// must parse back to the transactions it came from. With
// parser.FormatSQLLog's %g floats the first TPC-C Payment that takes
// w_ytd past 1e6 renders 1.00004346e+06, which the SQL lexer rejects.
func TestBodiesParseBack(t *testing.T) {
	for _, name := range workloadNames {
		// One second of TPC-C is 1000 transactions: enough Payments to
		// take w_ytd (300000 + up to 5000 each) well past 1e6.
		p, err := buildPlan(name, 3, 1, smokeData)
		if err != nil {
			t.Fatal(err)
		}
		schema := p.initial.Schema()
		sawBigFloat := false
		for _, list := range [][]ingest{p.pre, p.writes} {
			for i := range list {
				got, err := parser.ParseSQLLog(schema, string(list[i].body))
				if err != nil {
					t.Fatalf("%s: body %d does not parse: %v\n%s", name, i, err, list[i].body)
				}
				want := list[i].txns
				if len(got) != len(want) {
					t.Fatalf("%s: body %d parses to %d transactions, generated %d", name, i, len(got), len(want))
				}
				for j := range want {
					if got[j].Label != want[j].Label || len(got[j].Updates) != len(want[j].Updates) {
						t.Fatalf("%s: body %d transaction %d: parsed %s/%d updates, generated %s/%d", name, i, j,
							got[j].Label, len(got[j].Updates), want[j].Label, len(want[j].Updates))
					}
					for k := range want[j].Updates {
						if !sameUpdate(got[j].Updates[k], want[j].Updates[k]) {
							t.Fatalf("%s: %s update %d parsed back differently:\n got %+v\nwant %+v", name, want[j].Label, k, got[j].Updates[k], want[j].Updates[k])
						}
						for _, c := range want[j].Updates[k].Set {
							if c.Set && c.Val.Kind() == db.KindFloat && c.Val.Float() >= 1e6 {
								sawBigFloat = true
							}
						}
					}
				}
			}
		}
		if name == wlOLTP && !sawBigFloat {
			t.Errorf("%s: no float ≥ 1e6 generated; the test no longer covers the exponent-notation case", name)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		p, v := tailPercentile(samples(tc.n))
		if p != tc.want {
			t.Errorf("n=%d: picked p%g, want p%g", tc.n, p, tc.want)
		}
		// Counted, not computed: samples strictly above the value.
		beyond := 0
		for _, x := range samples(tc.n) {
			if x > v {
				beyond++
			}
		}
		if p > 50 && beyond < 10 {
			t.Errorf("n=%d: p%g has only %d samples beyond it", tc.n, p, beyond)
		}
		if tc.n >= 20 && (v < 0 || v > float64(tc.n-1)) {
			t.Errorf("n=%d: value %g outside the samples", tc.n, v)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %g", got)
	}
}

// TestPacerTimesFromDue: an op issued after a stall is still due at its
// scheduled instant, so its latency includes the stall, and the
// generator's lateness is reported.
func TestPacerTimesFromDue(t *testing.T) {
	pc := newPacer(1000) // 1 ms apart
	due0, late0 := pc.wait(0)
	if !due0.Equal(pc.start) || late0 < 0 || late0 > 50*time.Millisecond {
		t.Fatalf("op 0: due %v (start %v), late %v", due0, pc.start, late0)
	}
	time.Sleep(30 * time.Millisecond) // the system under test stalls
	due5, late5 := pc.wait(5)
	if want := pc.start.Add(5 * time.Millisecond); !due5.Equal(want) {
		t.Errorf("op 5 due at %v, want start+5ms = %v", due5.Sub(pc.start), 5*time.Millisecond)
	}
	if late5 < 20*time.Millisecond {
		t.Errorf("op 5 was sent ≥25 ms after it was due, lateness reported as %v", late5)
	}
	if lat := time.Since(due5); lat < 20*time.Millisecond {
		t.Errorf("latency from due time is %v: the stall was omitted", lat)
	}
	// Ahead of schedule the pacer waits for the due time.
	due, late := pc.wait(60)
	if time.Now().Before(due) || late > 20*time.Millisecond {
		t.Errorf("op 60: returned before its due time or %v late", late)
	}
}

func benchmarkSpec(t *testing.T, root string) (endToEnd, perLayerNames []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, workloadNames[i])
		}
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayerNames = append(perLayerNames, m.Name)
	}
	return endToEnd, perLayerNames
}

func sameNames(t *testing.T, what string, got map[string]metric, want []string) {
	t.Helper()
	for _, n := range want {
		if _, ok := got[n]; !ok {
			t.Errorf("%s: metric %s named in BENCHMARK.json was not emitted", what, n)
		}
	}
	if len(got) != len(want) {
		for n := range got {
			found := false
			for _, w := range want {
				found = found || w == n
			}
			if !found {
				t.Errorf("%s: emitted metric %s is not in BENCHMARK.json", what, n)
			}
		}
	}
}

// TestSmoke runs all four workloads at a hundredth of their size, both
// passes: servers over the wire with every correctness check, then the
// traced twins. Every metric BENCHMARK.json names must come out.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/hyperprov and launches servers")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayerNames := benchmarkSpec(t, root)
	bin, err := buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		p, err := buildPlan(name, 5, smokeSeconds, smokeData)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := replayOracle(p, p.traceOps)
		if err != nil {
			t.Fatal(err)
		}
		// The oracle replays with the index advisor on. Where the servers
		// run without one, the digest check below proves the two paths
		// end in the same bytes; where they run with one too, an
		// unindexed replay here does.
		if p.autoIndex > 0 {
			plain := engine.New(engine.ModeNormalForm, p.initial)
			for i := range p.writes {
				if _, err := plain.ApplyBatch(context.Background(), p.writes[i].txns); err != nil {
					t.Fatal(err)
				}
			}
			if got, err := snapshotDigest(plain); err != nil || got != exp.digest {
				t.Fatalf("%s: the indexed oracle and an unindexed replay disagree (%v)", name, err)
			}
		}

		// One set-up keeps the test short; the follower's lag is sampled
		// as a traced run would.
		wire, err := runWire(bin, p, exp, wireOpts{setupRounds: 1, sampleLag: true})
		if err != nil {
			t.Fatalf("%s: wire run: %v", name, err)
		}
		if wire.timed.failed != 0 || wire.timed.attempted == 0 {
			t.Fatalf("%s: %d of %d ops failed", name, wire.timed.failed, wire.timed.attempted)
		}
		e2e := wire.endToEnd()
		sameNames(t, name+" end-to-end", e2e, endToEnd)
		for n, m := range e2e {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", name, n, m.Value)
			}
		}

		tr, err := tracePass(p, exp, t.TempDir())
		if err != nil {
			t.Fatalf("%s: traced pass: %v", name, err)
		}
		layers := perLayer(p, wire, tr)
		sameNames(t, name+" per-layer", layers, perLayerNames)
		spans := filepath.Join(t.TempDir(), "spans.json")
		if err := tr.rec.writeFile(spans); err != nil {
			t.Fatal(err)
		}
		if info, err := os.Stat(spans); err != nil || info.Size() == 0 {
			t.Errorf("%s: no span file written (%v)", name, err)
		}
		for _, must0 := range []string{"admission.shed", "subscribe.frame_drops", "subscribe.resyncs", "subscribe.rebuilds"} {
			if v := layers[must0].Value; v != 0 {
				t.Errorf("%s: %s = %v, must be 0", name, must0, v)
			}
		}
	}
}
