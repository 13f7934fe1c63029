package hyperprov_test

// The walkthroughs of the paper's running example and of its Section 4.1
// applications. Each is checked against its Output by `go test`; run
// them alone with `go test -run '^Example' -v .`.

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"

	"hyperprov"
	"hyperprov/internal/benchutil"
	"hyperprov/internal/tpcc"
	"hyperprov/internal/workload"
)

// The paper's running example (Figures 1, 2 and 4): the Products table,
// transaction T1 (re-categorizing the kids mountain bike) and
// transaction T2 (discounting Sport products), with provenance tracked
// in both the naive and the normal-form representation, and two what-if
// questions answered from provenance alone.
func Example() {
	// Figure 1a: the Products table, annotated p1…p4.
	schema := hyperprov.MustSchema(hyperprov.MustRelation("Products",
		hyperprov.Attribute{Name: "Product", Kind: hyperprov.KindString},
		hyperprov.Attribute{Name: "Category", Kind: hyperprov.KindString},
		hyperprov.Attribute{Name: "Price", Kind: hyperprov.KindInt},
	))
	initial := hyperprov.NewDatabase(schema)
	rows := []hyperprov.Tuple{
		{hyperprov.S("Kids mnt bike"), hyperprov.S("Sport"), hyperprov.I(120)},
		{hyperprov.S("Tennis Racket"), hyperprov.S("Sport"), hyperprov.I(70)},
		{hyperprov.S("Kids mnt bike"), hyperprov.S("Kids"), hyperprov.I(120)},
		{hyperprov.S("Children sneakers"), hyperprov.S("Fashion"), hyperprov.I(40)},
	}
	for _, r := range rows {
		if err := initial.InsertTuple("Products", r); err != nil {
			panic(err)
		}
	}
	names := map[string]string{
		"Sport":   "p1",
		"Kids":    "p3",
		"Fashion": "p4",
	}
	annots := hyperprov.WithInitialAnnotations(func(rel string, t hyperprov.Tuple) hyperprov.Annot {
		if t[0].Str() == "Tennis Racket" {
			return hyperprov.TupleAnnot("p2")
		}
		return hyperprov.TupleAnnot(names[t[1].Str()])
	})

	// Figure 2: T1 moves the kids bike Kids→Sport→Bicycles; T2 sets the
	// price of every Sport product to 50. Written in the paper's
	// datalog-like notation and parsed.
	txns, err := hyperprov.ParseDatalogLog(schema, `
ProductsM,p("Kids mnt bike", "Kids", c -> "Kids mnt bike", "Sport", c):-
ProductsM,p("Kids mnt bike", "Sport", c -> "Kids mnt bike", "Bicycles", c):-
ProductsM,pp(a, "Sport", c -> a, "Sport", 50):-
`)
	if err != nil {
		panic(err)
	}

	for _, mode := range []hyperprov.Mode{hyperprov.ModeNaive, hyperprov.ModeNormalForm} {
		eng := hyperprov.New(mode, initial, annots)
		if err := eng.ApplyAll(context.Background(), txns); err != nil {
			panic(err)
		}
		fmt.Printf("=== %v ===\n", mode)
		eng.EachRow("Products", func(t hyperprov.Tuple, ann *hyperprov.Expr) {
			fmt.Printf("  %-42s %s\n", t, hyperprov.Minimize(ann))
		})

		// Example 4.3: what if the Tennis Racket had not been in the
		// database? Assign false to p2 — no re-execution needed.
		without := hyperprov.DeletionPropagation(eng, hyperprov.TupleAnnot("p2"))
		racket := hyperprov.Tuple{hyperprov.S("Tennis Racket"), hyperprov.S("Sport"), hyperprov.I(50)}
		fmt.Printf("  deletion propagation: discounted racket present without p2? %v\n",
			without.Instance("Products").Contains(racket))

		// Example 4.4: what if transaction p had been aborted? The Sport
		// bike would then have been discounted by pp.
		abort := hyperprov.AbortTransactions(eng, "p")
		bike := hyperprov.Tuple{hyperprov.S("Kids mnt bike"), hyperprov.S("Sport"), hyperprov.I(50)}
		fmt.Printf("  abortion: Sport bike at 50 present without transaction p? %v\n\n",
			abort.Instance("Products").Contains(bike))
	}
	// Output:
	// === No axioms ===
	//   (Kids mnt bike, Kids, 120)                 p3 - p
	//   (Kids mnt bike, Sport, 120)                ((p1 +M (p3 *M p)) - p) - pp
	//   (Tennis Racket, Sport, 70)                 p2 - pp
	//   (Children sneakers, Fashion, 40)           p4
	//   (Kids mnt bike, Bicycles, 120)             (p1 +M (p3 *M p)) *M p
	//   (Kids mnt bike, Sport, 50)                 ((p1 +M (p3 *M p)) - p) *M pp
	//   (Tennis Racket, Sport, 50)                 p2 *M pp
	//   deletion propagation: discounted racket present without p2? false
	//   abortion: Sport bike at 50 present without transaction p? true
	//
	// === Normal form ===
	//   (Kids mnt bike, Kids, 120)                 p3 - p
	//   (Kids mnt bike, Sport, 120)                (p1 - p) - pp
	//   (Tennis Racket, Sport, 70)                 p2 - pp
	//   (Children sneakers, Fashion, 40)           p4
	//   (Kids mnt bike, Bicycles, 120)             (p1 + p3) *M p
	//   (Kids mnt bike, Sport, 50)                 (p1 - p) *M pp
	//   (Tennis Racket, Sport, 50)                 p2 *M pp
	//   deletion propagation: discounted racket present without p2? false
	//   abortion: Sport bike at 50 present without transaction p? true
}

// The set-based access-control semantics of Section 4.1: tuples and
// transactions are annotated with sets of country names; specializing
// the abstract provenance into the set structure computes, for every
// tuple of the result, exactly the countries whose users may see it.
func ExampleAccessControl() {
	schema := hyperprov.MustSchema(hyperprov.MustRelation("Products",
		hyperprov.Attribute{Name: "Product", Kind: hyperprov.KindString},
		hyperprov.Attribute{Name: "Category", Kind: hyperprov.KindString},
		hyperprov.Attribute{Name: "Price", Kind: hyperprov.KindInt},
	))
	initial := hyperprov.NewDatabase(schema)
	// Per-country catalogues: the bike ships everywhere, the racket only
	// inside the EU, the sneakers only to IL.
	visibility := map[string]hyperprov.Set{
		"Kids mnt bike":     hyperprov.NewSet("IL", "FR", "DE", "US"),
		"Tennis Racket":     hyperprov.NewSet("FR", "DE"),
		"Children sneakers": hyperprov.NewSet("IL"),
	}
	for _, r := range []hyperprov.Tuple{
		{hyperprov.S("Kids mnt bike"), hyperprov.S("Sport"), hyperprov.I(120)},
		{hyperprov.S("Tennis Racket"), hyperprov.S("Sport"), hyperprov.I(70)},
		{hyperprov.S("Children sneakers"), hyperprov.S("Fashion"), hyperprov.I(40)},
	} {
		if err := initial.InsertTuple("Products", r); err != nil {
			panic(err)
		}
	}
	annots := hyperprov.WithInitialAnnotations(func(rel string, t hyperprov.Tuple) hyperprov.Annot {
		return hyperprov.TupleAnnot("t:" + t[0].Str())
	})

	// A summer-sale transaction that only the EU storefronts run, and a
	// global deletion of the Fashion category.
	txns, err := hyperprov.ParseSQLLog(schema, `
BEGIN eu_sale;
UPDATE Products SET Price = 50 WHERE Category = 'Sport';
COMMIT;
BEGIN global_cleanup;
DELETE FROM Products WHERE Category = 'Fashion';
COMMIT;
`)
	if err != nil {
		panic(err)
	}
	eng := hyperprov.New(hyperprov.ModeNormalForm, initial, annots)
	if err := eng.ApplyAll(context.Background(), txns); err != nil {
		panic(err)
	}

	// The valuation: tuple annotations carry catalogue visibility;
	// transaction annotations the countries that ran them. The
	// global cleanup is visible everywhere.
	everywhere := hyperprov.NewSet("IL", "FR", "DE", "US")
	env := func(a hyperprov.Annot) hyperprov.Set {
		switch a {
		case hyperprov.QueryAnnot("eu_sale"):
			return hyperprov.NewSet("FR", "DE")
		case hyperprov.QueryAnnot("global_cleanup"):
			return everywhere
		default:
			return visibility[a.Name[len("t:"):]]
		}
	}

	result := hyperprov.AccessControl(eng, env)
	fmt.Println("per-country visibility of the resulting catalogue:")
	var lines []string
	eng.EachRow("Products", func(t hyperprov.Tuple, ann *hyperprov.Expr) {
		set := hyperprov.Eval(hyperprov.Minimize(ann), hyperprov.Sets, env)
		if set.Len() == 0 {
			return
		}
		lines = append(lines, fmt.Sprintf("  %-38s visible in %s", t, set))
	})
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}

	// A French user sees the sale price; a US user still sees the
	// original price, because the sale transaction is not visible to it.
	fr := countryView(result, "FR")
	us := countryView(result, "US")
	fmt.Printf("\nFR sees %d product rows, US sees %d\n", fr, us)
	// Output:
	// per-country visibility of the resulting catalogue:
	//   (Kids mnt bike, Sport, 120)            visible in {IL, US}
	//   (Kids mnt bike, Sport, 50)             visible in {DE, FR}
	//   (Tennis Racket, Sport, 50)             visible in {DE, FR}
	//
	// FR sees 2 product rows, US sees 1
}

func countryView(result map[string]map[string]hyperprov.Set, country string) int {
	n := 0
	for _, rows := range result {
		for _, set := range rows {
			if set.Contains(country) {
				n++
			}
		}
	}
	return n
}

// The trust semantics of Section 4.1: tuples and transactions carry
// trust scores in [0,1]; given a minimal trust level L, specializing the
// provenance certifies exactly the tuples that an execution involving
// only sufficiently trusted inputs and transactions would produce.
func ExampleCertify() {
	schema := hyperprov.MustSchema(hyperprov.MustRelation("Readings",
		hyperprov.Attribute{Name: "Sensor", Kind: hyperprov.KindString},
		hyperprov.Attribute{Name: "Zone", Kind: hyperprov.KindString},
		hyperprov.Attribute{Name: "Status", Kind: hyperprov.KindString},
	))
	initial := hyperprov.NewDatabase(schema)
	// Sensor readings from sources of varying reliability.
	trust := map[string]float64{
		"s1": 0.95, // calibrated sensor
		"s2": 0.60, // aging sensor
		"s3": 0.20, // known-flaky sensor
	}
	for _, r := range []hyperprov.Tuple{
		{hyperprov.S("s1"), hyperprov.S("north"), hyperprov.S("raw")},
		{hyperprov.S("s2"), hyperprov.S("north"), hyperprov.S("raw")},
		{hyperprov.S("s3"), hyperprov.S("south"), hyperprov.S("raw")},
	} {
		if err := initial.InsertTuple("Readings", r); err != nil {
			panic(err)
		}
	}
	annots := hyperprov.WithInitialAnnotations(func(rel string, t hyperprov.Tuple) hyperprov.Annot {
		return hyperprov.TupleAnnot(t[0].Str())
	})

	// A well-reviewed pipeline validates the north zone; a hotfix with a
	// low review score validates the south zone.
	txns, err := hyperprov.ParseSQLLog(schema, `
BEGIN reviewed_pipeline;
UPDATE Readings SET Status = 'validated' WHERE Zone = 'north';
COMMIT;
BEGIN hotfix;
UPDATE Readings SET Status = 'validated' WHERE Zone = 'south';
COMMIT;
`)
	if err != nil {
		panic(err)
	}
	txnTrust := map[string]float64{"reviewed_pipeline": 0.9, "hotfix": 0.4}

	eng := hyperprov.New(hyperprov.ModeNormalForm, initial, annots)
	if err := eng.ApplyAll(context.Background(), txns); err != nil {
		panic(err)
	}

	env := func(a hyperprov.Annot) hyperprov.Trust {
		if v, ok := trust[a.Name]; ok {
			return hyperprov.Score(v)
		}
		if v, ok := txnTrust[a.Name]; ok {
			return hyperprov.Score(v)
		}
		return hyperprov.Score(1)
	}

	// At L=0.3 both pipelines pass but sensor s3 does not, so only the
	// north readings certify; raising L to 0.8 additionally drops the
	// aging sensor s2.
	for _, level := range []float64{0.3, 0.5, 0.8} {
		certified := hyperprov.Certify(eng, level, env)
		fmt.Printf("trust level L=%.1f certifies %d validated readings:\n", level, countStatus(certified, "validated"))
		certified.Instance("Readings").Each(func(t hyperprov.Tuple) {
			if t[2].Str() == "validated" {
				fmt.Printf("  %v\n", t)
			}
		})
	}
	// Output:
	// trust level L=0.3 certifies 2 validated readings:
	//   (s1, north, validated)
	//   (s2, north, validated)
	// trust level L=0.5 certifies 2 validated readings:
	//   (s1, north, validated)
	//   (s2, north, validated)
	// trust level L=0.8 certifies 1 validated readings:
	//   (s1, north, validated)
}

func countStatus(d *hyperprov.Database, status string) int {
	n := 0
	d.Instance("Readings").Each(func(t hyperprov.Tuple) {
		if t[2].Str() == status {
			n++
		}
	})
	return n
}

// Hypothetical reasoning at scale (Section 4.1 and the Figure 8c
// experiment): a synthetic table and a long update sequence are executed
// once with provenance; afterwards, "what would the result be without
// tuple X?" and "…with transaction T aborted?" are answered by
// valuation, and cross-checked against actual re-execution.
func ExampleDeletionPropagation() {
	cfg := workload.Config{
		Tuples: 50_000, Pool: 25, Group: 1, Updates: 250,
		QueriesPerTxn: 10, MergeRatio: 0.1, Seed: 42,
	}
	initial, txns, err := workload.Generate(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("synthetic table: %d tuples, %d transactions (%d update queries)\n",
		initial.NumTuples(), len(txns), cfg.Updates)

	eng := hyperprov.New(hyperprov.ModeNormalForm, initial,
		hyperprov.WithInitialAnnotations(benchutil.KeyAnnot))
	if err := eng.ApplyAll(context.Background(), txns); err != nil {
		panic(err)
	}
	fmt.Printf("provenance tracking run: provenance size %d nodes\n", eng.ProvSize())

	// What-if 1: delete a pool tuple from the input.
	victim, _ := benchutil.PickVictim(initial, txns, "R")
	hypo := hyperprov.DeletionPropagation(eng, benchutil.KeyAnnot("R", victim))

	smaller := initial.Clone()
	if err := smaller.Apply(hyperprov.Delete("R", hyperprov.ConstPattern(victim))); err != nil {
		panic(err)
	}
	if err := smaller.ApplyAll(txns); err != nil {
		panic(err)
	}
	fmt.Printf("deletion propagation of %v by valuation and by re-running: results agree: %v\n",
		victim, hypo.Equal(smaller))

	// What-if 2: abort the 3rd transaction.
	label := txns[2].Label
	aborted := hyperprov.AbortTransactions(eng, label)

	replay := initial.Clone()
	for i := range txns {
		if txns[i].Label == label {
			continue
		}
		if err := replay.ApplyTransaction(&txns[i]); err != nil {
			panic(err)
		}
	}
	fmt.Printf("abortion of transaction %s by valuation and by re-running: results agree: %v\n",
		label, aborted.Equal(replay))
	// Output:
	// synthetic table: 50000 tuples, 25 transactions (250 update queries)
	// provenance tracking run: provenance size 55719 nodes
	// deletion propagation of (17, 17, beta, 98, payload) by valuation and by re-running: results agree: true
	// abortion of transaction q2 by valuation and by re-running: results agree: true
}

// The analysis layer built on top of provenance: the inverted impact
// index answers "which output tuples could change if this input tuple or
// this transaction were revoked?", snapshots persist the annotated
// database across process restarts, and Explain renders a tuple's
// history for humans.
func ExampleBuildImpact() {
	gen := tpcc.NewGenerator(tpcc.Scaled(0.01))
	initial, err := gen.InitialDatabase()
	if err != nil {
		panic(err)
	}
	txns := gen.TransactionsForQueries(120)
	eng := hyperprov.New(hyperprov.ModeNormalForm, initial,
		hyperprov.WithInitialAnnotations(benchutil.KeyAnnot))
	if err := eng.ApplyAll(context.Background(), txns); err != nil {
		panic(err)
	}
	fmt.Printf("TPC-C session: %d tuples, %d transactions tracked\n",
		initial.NumTuples(), len(txns))

	// Build the inverted index once; then impact questions are
	// sub-millisecond lookups plus candidate-local valuations.
	im := hyperprov.BuildImpact(eng)
	fmt.Printf("impact index over %d distinct annotations\n", im.NumAnnotations())

	// Which rows would actually change had the first delivery been
	// aborted? A log this short holds no delivery, so the first
	// transaction stands in for it.
	label := txns[0].Label
	for i := range txns {
		if len(txns[i].Updates) > 0 && strings.HasPrefix(txns[i].Label, "delivery") {
			label = txns[i].Label
			break
		}
	}
	_, cands := im.Candidates(hyperprov.QueryAnnot(label))
	frels, flipped := im.Flipped(hyperprov.QueryAnnot(label))
	fmt.Printf("\ntransaction %s: %d candidate rows, %d actually flip:\n", label, len(cands), len(flipped))
	for i, tu := range flipped {
		if i >= 5 {
			fmt.Printf("  … and %d more\n", len(flipped)-5)
			break
		}
		fmt.Printf("  %-12s %v\n", frels[i], tu)
	}

	// Tuple-level dependencies of a modified customer.
	var cust hyperprov.Tuple
	eng.EachRow(tpcc.Customer, func(t hyperprov.Tuple, ann *hyperprov.Expr) {
		if cust == nil && ann.Size() > 1 {
			cust = t.Clone() // EachRow lends t
		}
	})
	tuples, labels := hyperprov.Dependencies(eng, tpcc.Customer, cust)
	fmt.Printf("\ncustomer (c_id=%v, d=%v, w=%v) depends on %d input tuples and %d transactions\n",
		cust[0], cust[1], cust[2], len(tuples), len(labels))
	fmt.Println(hyperprov.ExplainString(hyperprov.Minimize(eng.Annotation(tpcc.Customer, cust))))

	// Persist the annotated database and prove the snapshot is usable.
	var buf bytes.Buffer
	if err := hyperprov.SaveSnapshot(&buf, eng); err != nil {
		panic(err)
	}
	restored, err := hyperprov.LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		panic(err)
	}
	fmt.Printf("snapshot: %d bytes for %d provenance nodes; restored live db equals original: %v\n",
		buf.Len(), eng.ProvSize(),
		hyperprov.LiveDB(restored).Equal(hyperprov.LiveDB(eng)))
	// Output:
	// TPC-C session: 6018 tuples, 7 transactions tracked
	// impact index over 6025 distinct annotations
	//
	// transaction neworder_1: 28 candidate rows, 28 actually flip:
	//   DISTRICT     (4, 1, dist-1-4, 0.05, 30000, 31)
	//   DISTRICT     (4, 1, dist-1-4, 0.05, 30000, 32)
	//   NEW_ORDER    (31, 4, 1)
	//   ORDERS       (31, 4, 1, 23, 1, 0, 8, 1)
	//   ORDER_LINE   (31, 4, 1, 1, 577, 1, 0, 1, 52.76)
	//   … and 23 more
	//
	// customer (c_id=24, d=6, w=1) depends on 1 input tuples and 1 transactions
	// deleted by
	//   transaction payment_5
	// from prior state
	//   input tuple t:CUSTOMER:i24|i6|i1|s11:BARABLEPRES|s8:first-24|s2:GC|f0.36|f-10|f10|i1|i0|s12:customerdata
	//
	// snapshot: 344608 bytes for 6707 provenance nodes; restored live db equals original: true
}

// A provenance-tracked TPC-C session (the Section 6.1 workload): a scaled
// TPC-C instance executes a mix of New-Order, Payment and Delivery
// transactions lowered to hyperplane updates; the example then inspects
// the provenance of a customer's balance and answers "which orders would
// still exist had transaction X aborted?" without re-running anything.
func Example_tpcc() {
	gen := tpcc.NewGenerator(tpcc.Scaled(0.02))
	initial, err := gen.InitialDatabase()
	if err != nil {
		panic(err)
	}
	txns := gen.TransactionsForQueries(150)
	fmt.Printf("TPC-C instance: %d tuples across %d tables; log of %d transactions\n",
		initial.NumTuples(), len(initial.Schema().Names()), len(txns))

	eng := hyperprov.New(hyperprov.ModeNormalForm, initial)
	if err := eng.ApplyAll(context.Background(), txns); err != nil {
		panic(err)
	}
	fmt.Printf("executed with provenance: provenance size %d nodes, %d stored rows (%d live)\n",
		eng.ProvSize(), eng.NumRows(), eng.SupportSize())

	// Find a customer row a Payment transaction touched and show the
	// provenance trail of its current balance.
	allTrue := func(hyperprov.Annot) bool { return true }
	var sample hyperprov.Tuple
	var sampleAnn *hyperprov.Expr
	eng.EachRow(tpcc.Customer, func(t hyperprov.Tuple, ann *hyperprov.Expr) {
		if sample == nil && ann.Size() >= 5 && hyperprov.Eval(ann, hyperprov.Bool, allTrue) {
			sample, sampleAnn = t.Clone(), ann // EachRow lends t
		}
	})
	fmt.Printf("\ncustomer (c_id=%v, d=%v, w=%v) balance %v has provenance\n  %s\n",
		sample[0], sample[1], sample[2], sample[7], hyperprov.Minimize(sampleAnn))

	// Hypothetically abort the first New-Order transaction and count the
	// orders that disappear, from provenance alone.
	var abortLabel string
	for i := range txns {
		if strings.HasPrefix(txns[i].Label, "neworder") {
			abortLabel = txns[i].Label
			break
		}
	}
	live := hyperprov.LiveDB(eng)
	hypo := hyperprov.AbortTransactions(eng, abortLabel)
	fmt.Printf("\naborting %s: ORDERS %d -> %d, ORDER_LINE %d -> %d, NEW_ORDER %d -> %d\n",
		abortLabel,
		live.Instance(tpcc.Orders).Len(), hypo.Instance(tpcc.Orders).Len(),
		live.Instance(tpcc.OrderLine).Len(), hypo.Instance(tpcc.OrderLine).Len(),
		live.Instance(tpcc.NewOrder).Len(), hypo.Instance(tpcc.NewOrder).Len())
	// Output:
	// TPC-C instance: 12072 tuples across 9 tables; log of 11 transactions
	// executed with provenance: provenance size 13592 nodes, 12312 stored rows (12312 live)
	//
	// customer (c_id=5, d=4, w=1) balance -1201.56 has provenance
	//   t555 *M payment_1
	//
	// aborting neworder_5: ORDERS 604 -> 603, ORDER_LINE 6130 -> 6117, NEW_ORDER 174 -> 173
}
