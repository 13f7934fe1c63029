package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/workload"
)

// applyTxns applies transactions and fails the test on error.
func applyTxns(t *testing.T, e engine.DB, txns []db.Transaction) {
	t.Helper()
	if err := e.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
}

// findIndex returns the IndexInfo for rel.attr, or nil.
func findIndex(infos []engine.IndexInfo, rel, attr string) *engine.IndexInfo {
	for i := range infos {
		if infos[i].Rel == rel && infos[i].Attr == attr {
			return &infos[i]
		}
	}
	return nil
}

// TestPostingListBoundedAfterChurn is the tombstone-bloat regression
// test: a posting list holds one entry per row of its table and a
// deleted tuple keeps its row, so churn never grows an index beyond its
// table. Under live matching, rounds of insert-then-delete over a fixed
// key space revive the same rows: from the first round on the index's
// Entries and Bytes stay constant. With fresh ids every round the table
// grows, and Entries equals its rows.
func TestPostingListBoundedAfterChurn(t *testing.T) {
	e := engine.New(engine.ModeNormalForm, randDB(rand.New(rand.NewSource(1)), 0),
		engine.WithLiveMatching(true))
	if err := e.BuildIndex("R", "cat"); err != nil {
		t.Fatal(err)
	}
	const rounds, perRound = 30, 50
	churn := func(label string, id int64) *engine.IndexInfo {
		ins := db.Transaction{Label: "ins" + label}
		for i := 0; i < perRound; i++ {
			ins.Updates = append(ins.Updates, db.Insert("R",
				db.Tuple{db.I(id + int64(i)), db.S("a"), db.I(int64(i))}))
		}
		del := db.Transaction{Label: "del" + label, Updates: []db.Update{
			db.Delete("R", db.Pattern{db.AnyVar("id"), db.Const(db.S("a")), db.AnyVar("v")}),
		}}
		applyTxns(t, e, []db.Transaction{ins, del})
		info := findIndex(e.IndexStats(), "R", "cat")
		if info == nil {
			t.Fatal("index on R.cat disappeared")
		}
		if entries, slots := engine.PostingVolume(e, "R", "cat"); info.Entries != entries || info.Bytes != 4*slots || entries != e.NumRows() {
			t.Fatalf("round %s: %+v; the lists hold %d entries in %d B of chunks, the table %d rows", label, info, entries, 4*slots, e.NumRows())
		}
		return info
	}
	first := churn("0", 1000)
	for round := 1; round < rounds; round++ {
		if info := churn(fmt.Sprint(round), 1000); info.Entries != first.Entries || info.Bytes != first.Bytes {
			t.Fatalf("round %d over the same keys: %+v, first round %+v", round, info, first)
		}
	}
	if first.Entries != perRound {
		t.Fatalf("first round: %d entries for %d rows", first.Entries, perRound)
	}
	for round := 0; round < rounds; round++ { // distinct ids each round, so every row is fresh
		churn(fmt.Sprintf("fresh%d", round), 2000+int64(round*perRound))
	}
}

// TestIndexStatsAfterChurn: IndexStats reports one row per manual index
// and PlannerStats counts the scans that used them. After rounds of
// insert-then-delete churn under live matching, every index's Entries is
// the sum of its list lengths and the table's rows, and Bytes what their
// chunks hold, pinned on this fixed history.
func TestIndexStatsAfterChurn(t *testing.T) {
	wcfg := workload.Config{Tuples: 200, Group: 20, Updates: 40, QueriesPerTxn: 2, Seed: 611}
	initial, txns, err := workload.GenerateMultiColumn(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.ModeNormalForm, initial, engine.WithLiveMatching(true))
	for _, attr := range []string{"grp", "cat"} {
		if err := e.BuildIndex("R", attr); err != nil {
			t.Fatal(err)
		}
	}
	applyTxns(t, e, txns)
	infos := e.IndexStats()
	if len(infos) != 2 {
		t.Fatalf("want one row per index, got %d: %+v", len(infos), infos)
	}
	for _, info := range infos {
		if info.Rel != "R" || (info.Attr != "grp" && info.Attr != "cat") || info.Auto || info.Entries == 0 {
			t.Fatalf("unexpected index row: %+v", info)
		}
	}
	if ps := e.PlannerStats(); ps.IndexScans == 0 {
		t.Fatalf("PlannerStats counted no index scan: %+v", ps)
	}

	id := int64(1000)
	for round := 0; round < 12; round++ {
		ins := db.Transaction{Label: fmt.Sprintf("ins%d", round)}
		for i := 0; i < 10+round*7; i++ {
			ins.Updates = append(ins.Updates, db.Insert("R",
				db.Tuple{db.I(id), db.I(int64(round % 3)), db.S("churn"), db.I(int64(i)), db.S("p")}))
			id++
		}
		del := db.Transaction{Label: fmt.Sprintf("del%d", round), Updates: []db.Update{
			db.Delete("R", db.Pattern{db.AnyVar("id"), db.AnyVar("g"), db.Const(db.S("churn")), db.AnyVar("v"), db.AnyVar("p")}),
		}}
		applyTxns(t, e, []db.Transaction{ins, del})
	}
	wantBytes := map[string]int{"grp": 5888, "cat": 6656}
	for _, info := range e.IndexStats() {
		entries, slots := engine.PostingVolume(e, "R", info.Attr)
		if info.Entries != entries || info.Bytes != 4*slots || entries != e.NumRows() {
			t.Errorf("%s: %+v; the lists hold %d entries in %d B of chunks, the table %d rows: want the entries equal", info.Attr, info, entries, 4*slots, e.NumRows())
		}
		if info.Bytes != wantBytes[info.Attr] {
			t.Errorf("%s: Bytes = %d, want %d", info.Attr, info.Bytes, wantBytes[info.Attr])
		}
	}
}

// TestBuildIndexTwiceCoexists: building an index twice is a no-op, and
// indexes on different columns coexist — the second build must not
// silently replace the first.
func TestBuildIndexTwiceCoexists(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	e := engine.New(engine.ModeNormalForm, randDB(r, 20))
	for _, attr := range []string{"id", "id", "cat"} { // "id" twice on purpose
		if err := e.BuildIndex("R", attr); err != nil {
			t.Fatalf("BuildIndex(R, %s): %v", attr, err)
		}
	}
	infos := e.IndexStats()
	if len(infos) != 2 {
		t.Fatalf("want 2 coexisting indexes after duplicate build, got %d: %+v", len(infos), infos)
	}
	if findIndex(infos, "R", "id") == nil || findIndex(infos, "R", "cat") == nil {
		t.Fatalf("expected indexes on R.id and R.cat, got %+v", infos)
	}

	// Both indexes serve scans: pin id only, then cat only.
	before := e.PlannerStats()
	applyTxns(t, e, []db.Transaction{{Label: "q0", Updates: []db.Update{
		db.Delete("R", db.Pattern{db.Const(db.I(1)), db.AnyVar("c"), db.AnyVar("v")}),
		db.Delete("R", db.Pattern{db.AnyVar("i"), db.Const(db.S("a")), db.AnyVar("v")}),
	}}})
	after := e.PlannerStats()
	if got := after.IndexScans - before.IndexScans; got != 2 {
		t.Fatalf("want both single-column selections index-scanned, got %d index scans", got)
	}

	// The duplicate build kept the existing index complete: results match
	// an unindexed engine.
	plain := engine.New(engine.ModeNormalForm, randDB(rand.New(rand.NewSource(7)), 20))
	applyTxns(t, plain, []db.Transaction{{Label: "q0", Updates: []db.Update{
		db.Delete("R", db.Pattern{db.Const(db.I(1)), db.AnyVar("c"), db.AnyVar("v")}),
		db.Delete("R", db.Pattern{db.AnyVar("i"), db.Const(db.S("a")), db.AnyVar("v")}),
	}}})
	diffStreams(t, "build-twice", streamRows(plain), streamRows(e))
}

// TestDropIndexErrors: dropping an index that does not exist — never
// built, wrong attribute, or already dropped — returns the typed
// sentinel, and the relation itself is still validated.
func TestDropIndexErrors(t *testing.T) {
	e := engine.New(engine.ModeNaive, randDB(rand.New(rand.NewSource(11)), 5))
	if err := e.DropIndex("R", "id"); !errors.Is(err, engine.ErrUnknownIndex) {
		t.Fatalf("dropping a never-built index: want ErrUnknownIndex, got %v", err)
	}
	if err := e.DropIndex("Nope", "id"); !errors.Is(err, engine.ErrUnknownRelation) {
		t.Fatalf("dropping on unknown relation: want ErrUnknownRelation, got %v", err)
	}
	if err := e.BuildIndex("R", "id"); err != nil {
		t.Fatal(err)
	}
	if err := e.DropIndex("R", "cat"); !errors.Is(err, engine.ErrUnknownIndex) {
		t.Fatalf("dropping wrong attribute: want ErrUnknownIndex, got %v", err)
	}
	if err := e.DropIndex("R", "id"); err != nil {
		t.Fatalf("dropping an existing index: %v", err)
	}
	if err := e.DropIndex("R", "id"); !errors.Is(err, engine.ErrUnknownIndex) {
		t.Fatalf("double drop: want ErrUnknownIndex, got %v", err)
	}
	if err := e.BuildIndex("R", "nope"); !errors.Is(err, engine.ErrUnknownAttribute) {
		t.Fatalf("building on unknown attribute: want ErrUnknownAttribute, got %v", err)
	}
	if n := len(e.IndexStats()); n != 0 {
		t.Fatalf("want no indexes after drop, got %d", n)
	}
}

// TestPlannerNotEqFallback: selections whose only constraints are ≠
// never use an index (the planner has no =-pinned candidate column) and
// fall back to the full scan; mixed =/≠ selections use the index on the
// =-column and filter the ≠ per row. Both shapes must produce the same
// result as an unindexed engine.
func TestPlannerNotEqFallback(t *testing.T) {
	mk := func() []db.Transaction {
		return []db.Transaction{
			{Label: "q0", Updates: []db.Update{
				// ≠-only: no index candidate.
				db.Delete("R", db.Pattern{db.AnyVar("i"), db.VarNotEq("c", db.S("a")), db.AnyVar("v")}),
			}},
			{Label: "q1", Updates: []db.Update{
				// mixed =/≠: cat is pinned, val is ≠-constrained.
				db.Modify("R",
					db.Pattern{db.AnyVar("i"), db.Const(db.S("b")), db.VarNotEq("v", db.I(0))},
					[]db.SetClause{db.Keep(), db.Keep(), db.SetTo(db.I(9))}),
			}},
			{Label: "q2", Updates: []db.Update{
				// =-pinned on both indexed columns.
				db.Delete("R", db.Pattern{db.Const(db.I(2)), db.Const(db.S("c")), db.AnyVar("v")}),
			}},
		}
	}
	for _, mode := range []engine.Mode{engine.ModeNaive, engine.ModeNormalForm} {
		plain := engine.New(mode, randDB(rand.New(rand.NewSource(23)), 40))
		indexed := engine.New(mode, randDB(rand.New(rand.NewSource(23)), 40))
		for _, attr := range []string{"id", "cat"} {
			if err := indexed.BuildIndex("R", attr); err != nil {
				t.Fatal(err)
			}
		}
		applyTxns(t, plain, mk())
		applyTxns(t, indexed, mk())
		diffStreams(t, mode.String(), streamRows(plain), streamRows(indexed))

		ps := indexed.PlannerStats()
		if ps.FullScans == 0 {
			t.Fatalf("%s: ≠-only selection did not fall back to a full scan: %+v", mode, ps)
		}
		if ps.IndexScans == 0 {
			t.Fatalf("%s: =-pinned selections did not use the index: %+v", mode, ps)
		}
	}
}

// TestPlannerAbsentValueShortCircuits: an =-pinned value with no posting
// list proves the selection empty — the scan must return no rows (and be
// counted as an index scan), leaving annotations untouched.
func TestPlannerAbsentValueShortCircuits(t *testing.T) {
	e := engine.New(engine.ModeNormalForm, randDB(rand.New(rand.NewSource(29)), 10))
	if err := e.BuildIndex("R", "id"); err != nil {
		t.Fatal(err)
	}
	before := streamRows(e)
	stats := e.PlannerStats()
	applyTxns(t, e, []db.Transaction{{Label: "q0", Updates: []db.Update{
		db.Delete("R", db.Pattern{db.Const(db.I(999)), db.AnyVar("c"), db.AnyVar("v")}),
	}}})
	if got := e.PlannerStats().IndexScans - stats.IndexScans; got != 1 {
		t.Fatalf("absent-value probe not counted as an index scan (delta %d)", got)
	}
	diffStreams(t, "absent value", before, streamRows(e))
}

// TestAutoIndexAdvisor: with WithAutoIndex(n), the n'th =-pinned scan of
// an unindexed column builds its index automatically — visible in
// IndexStats as Auto and in the planner counters — and the resulting
// engine stays row-identical to an unindexed one.
func TestAutoIndexAdvisor(t *testing.T) {
	const threshold = 3
	mk := func() []db.Transaction {
		var txns []db.Transaction
		for i := 0; i < threshold+2; i++ {
			txns = append(txns, db.Transaction{Label: fmt.Sprintf("q%d", i), Updates: []db.Update{
				db.Modify("R",
					db.Pattern{db.AnyVar("i"), db.Const(db.S(testCats[i%len(testCats)])), db.AnyVar("v")},
					[]db.SetClause{db.Keep(), db.Keep(), db.SetTo(db.I(int64(i)))}),
			}})
		}
		return txns
	}
	plain := engine.New(engine.ModeNormalForm, randDB(rand.New(rand.NewSource(31)), 30))
	auto := engine.New(engine.ModeNormalForm, randDB(rand.New(rand.NewSource(31)), 30),
		engine.WithAutoIndex(threshold))
	applyTxns(t, plain, mk())
	applyTxns(t, auto, mk())
	diffStreams(t, "auto-index", streamRows(plain), streamRows(auto))

	info := findIndex(auto.IndexStats(), "R", "cat")
	if info == nil {
		t.Fatalf("advisor did not build the R.cat index: %+v", auto.IndexStats())
	}
	if !info.Auto {
		t.Fatal("advisor-built index not marked Auto")
	}
	ps := auto.PlannerStats()
	if ps.AutoBuilds != 1 {
		t.Fatalf("want exactly 1 auto build, got %d", ps.AutoBuilds)
	}
	if ps.IndexScans == 0 {
		t.Fatal("scans after the auto build did not use the index")
	}
	// id was never pinned often enough; no index may appear there.
	if findIndex(auto.IndexStats(), "R", "id") != nil {
		t.Fatal("advisor built an index on a column that never crossed the threshold")
	}

	// BuildIndex on the advisor's index adopts it as manual (idempotent).
	if err := auto.BuildIndex("R", "cat"); err != nil {
		t.Fatal(err)
	}
	if info := findIndex(auto.IndexStats(), "R", "cat"); info == nil || info.Auto {
		t.Fatalf("manual BuildIndex did not adopt the auto index: %+v", info)
	}
	// And a dropped auto index must re-earn its build.
	if err := auto.DropIndex("R", "cat"); err != nil {
		t.Fatal(err)
	}
	if findIndex(auto.IndexStats(), "R", "cat") != nil {
		t.Fatal("index survived DropIndex")
	}
}

// TestAnnotationsIdenticalUnderIndexes: the Theorem 5.3 license in full —
// random workloads leave every annotation structurally identical whether
// resolved by full scans, manual indexes on every column, or the
// advisor, including revival of tombstoned tuples.
func TestAnnotationsIdenticalUnderIndexes(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 25; trial++ {
		initial := randDB(r, 4+r.Intn(12))
		txns := randTxns(r, 2+r.Intn(2), 3+r.Intn(4))
		for _, mode := range []engine.Mode{engine.ModeNaive, engine.ModeNormalForm} {
			plain := engine.New(mode, initial)
			manual := engine.New(mode, initial)
			for _, attr := range []string{"id", "cat", "val"} {
				if err := manual.BuildIndex("R", attr); err != nil {
					t.Fatal(err)
				}
			}
			auto := engine.New(mode, initial, engine.WithAutoIndex(2))
			applyTxns(t, plain, txns)
			applyTxns(t, manual, txns)
			applyTxns(t, auto, txns)
			want := streamRows(plain)
			diffStreams(t, fmt.Sprintf("trial %d %s manual", trial, mode), want, streamRows(manual))
			diffStreams(t, fmt.Sprintf("trial %d %s auto", trial, mode), want, streamRows(auto))
			plain.EachRow("R", func(tu db.Tuple, ann *core.Expr) {
				if other := manual.Annotation("R", tu); other == nil || !ann.Equal(other) {
					t.Errorf("trial %d %s: annotation of %v differs under manual indexes", trial, mode, tu)
				}
			})
		}
	}
}

// TestPostingListsHoldEveryRow: after every transaction of seeded random
// logs — both modes, both matchability semantics, one index built before
// the log and one in the middle of it — the list of each value holds, in
// order, exactly the positions of the rows whose column holds it. Rows
// leaving the matchable set (a MinimizeAll pass, a restore to 0, a
// deletion under live matching) stay listed, and a revived tuple is
// listed once, at its own position.
func TestPostingListsHoldEveryRow(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 12; trial++ {
		initial := randDB(r, 4+r.Intn(12))
		txns := randTxns(r, 6, 2+r.Intn(5))
		victim := randTuple(r)
		for _, mode := range []engine.Mode{engine.ModeNaive, engine.ModeNormalForm} {
			for _, live := range []bool{false, true} {
				label := fmt.Sprintf("trial %d %s live=%v", trial, mode, live)
				e := engine.New(mode, initial, engine.WithLiveMatching(live))
				check := func(step string) {
					t.Helper()
					if msg := engine.PostingListsOffRows(e); msg != "" {
						t.Fatalf("%s, %s: %s", label, step, msg)
					}
				}
				if err := e.BuildIndex("R", "cat"); err != nil {
					t.Fatal(err)
				}
				check("built before the log")
				for i := range txns {
					if i == len(txns)/2 {
						if err := e.BuildIndex("R", "val"); err != nil {
							t.Fatal(err)
						}
						check("built mid-log")
					}
					txn := txns[i]
					if err := e.ApplyTransaction(&txn); err != nil {
						t.Fatal(err)
					}
					check(txn.Label)
				}
				if _, err := e.MinimizeAll(context.Background()); err != nil {
					t.Fatal(err)
				}
				check("MinimizeAll")
				if err := e.RestoreRow("R", victim, core.Zero()); err != nil {
					t.Fatal(err)
				}
				check("restore to 0")
				pin := db.Pattern{db.Const(victim[0]), db.Const(victim[1]), db.Const(victim[2])}
				for _, txn := range []db.Transaction{
					{Label: "revive", Updates: []db.Update{db.Insert("R", victim)}},
					{Label: "kill", Updates: []db.Update{db.Delete("R", pin)}},
					{Label: "revive again", Updates: []db.Update{db.Insert("R", victim)}},
				} {
					if err := e.ApplyTransaction(&txn); err != nil {
						t.Fatal(err)
					}
					check(txn.Label)
				}
				if got, err := e.Select("R", pin); err != nil || len(got) != 1 {
					t.Fatalf("%s: the revived tuple reads %v, %v", label, got, err)
				}
			}
		}
	}
}
