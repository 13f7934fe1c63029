package engine_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/workload"
)

// indexConfig is one access-path configuration of the differential
// matrix: how (and whether) indexes come into being.
type indexConfig struct {
	name   string
	opts   []engine.Option // extra engine options (e.g. the advisor)
	manual []string        // attributes of R to BuildIndex up front
}

func plannerConfigs() []indexConfig {
	return []indexConfig{
		{name: "noindex"},
		{name: "manual", manual: []string{"id", "cat", "val"}},
		{name: "autoindex", opts: []engine.Option{engine.WithAutoIndex(2)}},
	}
}

// TestPlannerDifferential is the scan planner's correctness contract:
// for random databases and random hyperplane transactions (constants, ≠
// constraints and free variables mixed), annotations, streaming order
// and snapshot bytes must be identical with indexes off, manually built
// on every column, and advisor-built — in both provenance modes and
// under both matchability semantics.
func TestPlannerDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(601))
	for trial := 0; trial < 15; trial++ {
		initial := randDB(r, 4+r.Intn(12))
		txns := randTxns(r, 2, 2+r.Intn(4))
		for _, mode := range []engine.Mode{engine.ModeNaive, engine.ModeNormalForm} {
			for _, live := range []bool{false, true} {
				base := engine.New(mode, initial, engine.WithLiveMatching(live))
				if err := base.ApplyAll(context.Background(), txns); err != nil {
					t.Fatal(err)
				}
				want := streamRows(base)
				wantSnap := snapshotOf(t, base)
				for _, cfg := range plannerConfigs() {
					label := fmt.Sprintf("trial %d %s live=%v %s", trial, mode, live, cfg.name)
					opts := append([]engine.Option{engine.WithLiveMatching(live)}, cfg.opts...)
					e := engine.Open(mode, initial, opts...)
					for _, attr := range cfg.manual {
						if err := e.BuildIndex("R", attr); err != nil {
							t.Fatalf("%s: BuildIndex: %v", label, err)
						}
					}
					if err := e.ApplyAll(context.Background(), txns); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					diffStreams(t, label, want, streamRows(e))
					if !bytes.Equal(wantSnap, snapshotOf(t, e)) {
						t.Fatalf("%s: snapshot bytes differ from the unindexed engine", label)
					}
				}
			}
		}
	}
}

// TestPlannerDifferentialMultiColumn runs the partially-pinned workload
// the planner is built for — selections pinning two indexed columns
// walk the shorter list — and checks the same byte-identity contract,
// plus that the interesting planner paths were really taken.
func TestPlannerDifferentialMultiColumn(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-column differential needs a few thousand rows")
	}
	wcfg := workload.Config{Tuples: 2000, Group: 200, Updates: 120, QueriesPerTxn: 4, Seed: 603}
	initial, txns, err := workload.GenerateMultiColumn(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	base := engine.New(engine.ModeNormalForm, initial)
	if err := base.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	want := streamRows(base)
	wantSnap := snapshotOf(t, base)

	for _, cfg := range plannerConfigs()[1:] { // manual, autoindex
		e := engine.Open(engine.ModeNormalForm, initial, cfg.opts...)
		if cfg.name == "manual" {
			// The workload pins grp and cat; id/val indexes would sit idle.
			for _, attr := range []string{"grp", "cat"} {
				if err := e.BuildIndex("R", attr); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := e.ApplyAll(context.Background(), txns); err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		diffStreams(t, cfg.name, want, streamRows(e))
		if !bytes.Equal(wantSnap, snapshotOf(t, e)) {
			t.Fatalf("%s: snapshot bytes differ", cfg.name)
		}
		ps := e.PlannerStats()
		if ps.IndexScans == 0 {
			t.Fatalf("%s: workload never index-scanned: %+v", cfg.name, ps)
		}
		if ps.FullScans == 0 {
			t.Fatalf("%s: ≠-only selections never fell back to full scan: %+v", cfg.name, ps)
		}
		if cfg.name == "autoindex" && ps.AutoBuilds == 0 {
			t.Fatalf("%s: advisor never built an index: %+v", cfg.name, ps)
		}
	}
}

// TestConcurrentAutoIndexStress drives an engine with the
// advisor enabled while readers hammer the statistics and annotation
// endpoints and a maintenance goroutine builds and drops an index in a
// loop. Run under -race (the CI race job does), this is the memory-model
// contract for concurrent auto-index builds: scans mutate index state
// only under the write lock, the planner counters are atomics.
func TestConcurrentAutoIndexStress(t *testing.T) {
	wcfg := workload.Config{Tuples: 400, Group: 40, Updates: 200, QueriesPerTxn: 2, Seed: 607}
	initial, txns, err := workload.GenerateMultiColumn(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.Open(engine.ModeNormalForm, initial, engine.WithAutoIndex(2))

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { // readers: stats, annotations, row streams
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = e.PlannerStats()
				_ = e.IndexStats()
				_ = e.NumRows()
				_ = e.ProvSize()
			}
		}()
	}
	wg.Add(1)
	go func() { // builder/dropper racing the advisor
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := e.BuildIndex("R", "val"); err != nil {
				t.Errorf("concurrent BuildIndex: %v", err)
				return
			}
			if err := e.DropIndex("R", "val"); err != nil && !errors.Is(err, engine.ErrUnknownIndex) {
				t.Errorf("concurrent DropIndex: %v", err)
				return
			}
		}
	}()

	if err := e.ApplyAll(context.Background(), txns); err != nil {
		t.Error(err)
	}
	close(done)
	wg.Wait()

	// The advisor must have fired somewhere, and the result must still
	// match a quiet, unindexed run.
	if ps := e.PlannerStats(); ps.AutoBuilds == 0 {
		t.Fatalf("advisor never fired under concurrency: %+v", ps)
	}
	quiet := engine.New(engine.ModeNormalForm, initial)
	if err := quiet.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	diffStreams(t, "concurrent auto-index", streamRows(quiet), streamRows(e))
	if !bytes.Equal(snapshotOf(t, quiet), snapshotOf(t, e)) {
		t.Fatal("snapshot bytes diverged after concurrent auto-index stress")
	}
}

// pinnedFamilyLog is a log over R(K, V), V ∈ 0…4, whose deletions and
// modifications pin every attribute: rows present, absent, tombstoned
// and revived, targets that are new, stored, or the source itself,
// attribute conditions that hold and that fail — scripted first, then
// at random. initial holds (k, k%3) for k < 10.
func pinnedFamilyLog(r *rand.Rand) (initial *db.Database, txns []db.Transaction) {
	schema := db.MustSchema(db.MustRelationSchema("R",
		db.Attribute{Name: "K", Kind: db.KindInt},
		db.Attribute{Name: "V", Kind: db.KindInt},
	))
	initial = db.NewDatabase(schema)
	kv := func(k, v int) db.Tuple { return db.Tuple{db.I(int64(k)), db.I(int64(v))} }
	for k := 0; k < 10; k++ {
		if err := initial.InsertTuple("R", kv(k, k%3)); err != nil {
			panic(err)
		}
	}
	del := func(k, v int) db.Update { return db.Delete("R", db.ConstPattern(kv(k, v))) }
	setV := func(k, v, to int) db.Update {
		return db.Modify("R", db.ConstPattern(kv(k, v)), []db.SetClause{db.Keep(), db.SetTo(db.I(int64(to)))})
	}
	setK := func(k, v, to int) db.Update {
		return db.Modify("R", db.ConstPattern(kv(k, v)), []db.SetClause{db.SetTo(db.I(int64(to))), db.Keep()})
	}
	differ, agree := db.AttrCond{Left: 0, Right: 1, Neq: true}, db.AttrCond{Left: 0, Right: 1}
	for i, u := range []db.Update{
		del(1, 1),                           // present
		del(1, 1),                           // tombstoned
		del(50, 0),                          // absent
		db.Insert("R", kv(1, 1)), del(1, 1), // revived
		setV(2, 2, 0),                   // onto a new row
		setV(2, 2, 4),                   // from a tombstone
		setK(6, 0, 9),                   // onto a stored row
		setV(7, 1, 1),                   // onto itself
		setV(60, 0, 1),                  // absent
		del(8, 2).WithConds(differ),     // condition holds
		del(0, 0).WithConds(differ),     // condition fails
		setV(3, 0, 2).WithConds(agree),  // condition fails
		setV(4, 1, 3).WithConds(differ), // condition holds
		db.Delete("R", db.Pattern{db.AnyVar("k"), db.Const(db.I(0))}), // tombstones by hyperplane
		del(9, 0), setV(3, 0, 1), db.Insert("R", kv(9, 0)), setK(9, 0, 3),
	} {
		txns = append(txns, db.Transaction{Label: fmt.Sprintf("s%d", i), Updates: []db.Update{u}})
	}
	for i := 0; i < 40; i++ {
		tx := db.Transaction{Label: fmt.Sprintf("r%d", i)}
		for q := 1 + r.Intn(3); q > 0; q-- {
			k, v := r.Intn(12), r.Intn(5)
			var u db.Update
			switch r.Intn(5) {
			case 0:
				u = db.Insert("R", kv(k, v))
			case 1:
				u = del(k, v)
			case 2:
				u = setV(k, v, r.Intn(5))
			case 3:
				u = setK(k, v, r.Intn(12))
			default:
				u = db.Delete("R", db.Pattern{db.Const(db.I(int64(k))), db.AnyVar("v")})
			}
			if u.Kind != db.OpInsert && r.Intn(4) == 0 {
				u = u.WithConds([]db.AttrCond{differ, agree}[r.Intn(2)])
			}
			tx.Updates = append(tx.Updates, u)
		}
		txns = append(txns, tx)
	}
	return initial, txns
}

// unpinV rewrites every fully constant selection K = k ∧ V = v of the
// log into K = k ∧ V ∉ {0…4} \ {v}: the same rows over V's domain, but
// no longer a point lookup to the planner.
func unpinV(txns []db.Transaction) []db.Transaction {
	out := make([]db.Transaction, len(txns))
	for i, tx := range txns {
		out[i] = db.Transaction{Label: tx.Label, Updates: append([]db.Update(nil), tx.Updates...)}
		for j, u := range out[i].Updates {
			if _, pinned := u.Sel.PinnedTuple(); u.Kind == db.OpInsert || !pinned {
				continue
			}
			var others []db.Value
			for v := int64(0); v < 5; v++ {
				if db.I(v) != u.Sel[1].Value() {
					others = append(others, db.I(v))
				}
			}
			out[i].Updates[j].Sel = db.Pattern{u.Sel[0], db.VarNotEq("v", others...)}
		}
	}
	return out
}

// TestPlannerDifferentialPinned is the contract of the planner's point
// lookup: a selection pinning every attribute, answered by one probe of
// the fingerprint map, leaves exactly the state the same selection
// leaves when it is phrased so as to walk the relation or a posting
// list — row order, annotation pointers and snapshot bytes — in both
// modes and under both matchability semantics.
func TestPlannerDifferentialPinned(t *testing.T) {
	initial, pinned := pinnedFamilyLog(rand.New(rand.NewSource(617)))
	unpinned := unpinV(pinned)
	selections := uint64(0)
	for _, tx := range pinned {
		for _, u := range tx.Updates {
			if u.Kind != db.OpInsert {
				selections++
			}
		}
	}
	for _, mode := range []engine.Mode{engine.ModeNaive, engine.ModeNormalForm} {
		for _, live := range []bool{false, true} {
			var want []streamedRow
			var wantSnap []byte
			for _, path := range []string{"probe", "fullscan", "indexscan"} {
				label := fmt.Sprintf("%s live=%v %s", mode, live, path)
				e := engine.New(mode, initial, engine.WithLiveMatching(live))
				txns := unpinned
				switch path {
				case "probe":
					txns = pinned
				case "indexscan":
					if err := e.BuildIndex("R", "K"); err != nil {
						t.Fatal(err)
					}
				}
				if err := e.ApplyAll(context.Background(), txns); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got := streamRows(e)
				if want == nil {
					want, wantSnap = got, snapshotOf(t, e)
				}
				diffStreams(t, label, want, got)
				if mode == engine.ModeNormalForm {
					diffPointers(t, label, want, got)
				}
				if !bytes.Equal(wantSnap, snapshotOf(t, e)) {
					t.Fatalf("%s: snapshot bytes differ from the probing engine", label)
				}
				// The access path under test is the one that ran, and every
				// planned selection is counted under exactly one of the three.
				ps := e.PlannerStats()
				switch {
				case path == "probe" && ps.PointLookups == 0,
					path == "fullscan" && (ps.FullScans == 0 || ps.PointLookups+ps.IndexScans != 0),
					path == "indexscan" && (ps.IndexScans == 0 || ps.PointLookups != 0):
					t.Fatalf("%s: planner counters %+v", label, ps)
				}
				if planned := ps.FullScans + ps.IndexScans + ps.PointLookups; planned != selections {
					t.Fatalf("%s: %d selections planned, the log holds %d: %+v", label, planned, selections, ps)
				}
			}
		}
	}
}
