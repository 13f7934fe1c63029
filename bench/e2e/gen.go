package main

import (
	"fmt"
	"math/rand"
	"sort"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/subscribe"
	"hyperprov/internal/tpcc"
	"hyperprov/internal/workload"
)

// Workload names are permanent: BENCHMARK.json, the README tables and
// every recorded result set key on them.
const (
	wlOLTP    = "oltp_point"
	wlBulk    = "bulk_scan"
	wlWhatif  = "whatif_read"
	wlReplica = "replica_fanout"
)

var workloadNames = []string{wlOLTP, wlBulk, wlWhatif, wlReplica}

// ingest is one POST /v1/ingest request: the SQL body the load
// generator sends and the transactions it encodes (what the oracle and
// the traced twins replay in-process).
type ingest struct {
	body []byte
	txns []db.Transaction
}

type readKind uint8

const (
	readAnnotation readKind = iota // POST /v1/annotation, must answer found
	readDeletion                   // POST /v1/whatif/deletion
	readAbort                      // POST /v1/whatif/abort
)

// readOp is one request on connection R.
type readOp struct {
	kind  readKind
	rel   string   // readAnnotation
	tuple db.Tuple // readAnnotation
	names []string // tuple annotations (deletion) or labels (abort)
}

// plan is one workload's seeded, pre-generated, fixed op list. A run
// ends when the last op completes, never on a timer, so two runs with
// the same seed and size do identical work and end in a byte-identical
// state. Only the size (how many ops) derives from -seconds.
type plan struct {
	name    string
	initial *db.Database

	// Server flags that differ per workload; everything else is fixed
	// in serverArgs.
	autoIndex int
	ckptEvery int
	follower  bool

	// pre is applied over /v1/ingest during set-up, before the timed
	// region (whatif_read's pre-existing update history).
	pre []ingest

	writes []ingest
	// writeRate > 0 issues writes open loop at that many requests per
	// second, timed from their due time; 0 is a closed loop on W.
	writeRate float64

	reads []readOp
	// readEvery > 0: reads[k] is issued on R right after the ack of
	// writes[(k+1)*readEvery-1], in lockstep with W. readRate > 0:
	// reads are issued open loop on R beside the writes.
	readEvery int
	readRate  float64

	// subs is the ND-JSON subscription stream R holds on the follower.
	subs []subscribe.Spec

	// recover: after the checks the leader is SIGKILLed and restarted on
	// the same directory, and must come back to the same state.
	recover bool

	// traceOps is how many of the writes (with their reads) the traced
	// pass replays on its in-process twins: three more replays of the
	// whole list would not fit a run, so the heavier workloads trace a
	// prefix.
	traceOps int
}

// Per-second op rates: a plan for -seconds s holds rate*s ops, sized
// on the 2-vCPU reference box so the timed region lasts about s
// seconds (see README, "Sizing"). replica_fanout's is its open-loop
// rate: the subscription manager's cost per commit grows with the
// state, and past ≈4 000 transactions 300/s saturates it.
const (
	oltpTxnPerSec    = 1000
	oltpReadEvery    = 50
	bulkTxnPerSec    = 350
	bulkBatch        = 25
	bulkReadPerSec   = 100
	whatifPerSec     = 3.6
	replicaTxnPerSec = 200
)

// buildPlan generates the named workload's op list for the seed, sized
// for `seconds` of timed region. data scales the synthetic tables and
// whatif_read's pre-applied history: 1 in the benchmark, less in the
// tests, whose hundredth-size op lists would otherwise spend their
// time loading full-size tables.
func buildPlan(name string, seed int64, seconds, data float64) (p *plan, err error) {
	ops := func(perSec float64) int { return max(1, int(perSec*seconds)) }
	rows := func(full int) int { return max(100, int(float64(full)*data)) }
	traceShare := 1
	switch name {
	case wlOLTP:
		p, err = planOLTP(seed, ops(oltpTxnPerSec))
		traceShare = 2
	case wlBulk:
		p, err = planBulk(seed, rows(200000), ops(bulkTxnPerSec), ops(bulkReadPerSec))
		traceShare = 6
	case wlWhatif:
		p, err = planWhatif(seed, rows(100000), ops(whatifPerSec))
		traceShare = 3
	case wlReplica:
		p, err = planReplica(seed, ops(replicaTxnPerSec))
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	p.traceOps = max(len(p.writes)/traceShare, min(len(p.writes), 10))
	return p, nil
}

// tpccPlan generates n TPC-C transactions, one per ingest request, and
// (readEvery > 0) for every readEvery'th one a read-back of a tuple that
// transaction (or, when it inserted nothing, the latest one that did)
// inserted.
func tpccPlan(name string, seed int64, n, readEvery int) (*plan, error) {
	cfg := tpcc.Scaled(0.02)
	cfg.Seed = seed
	g := tpcc.NewGenerator(cfg)
	initial, err := g.InitialDatabase()
	if err != nil {
		return nil, err
	}
	if initial, err = asLoadedFromCSV(initial); err != nil {
		return nil, err
	}
	p := &plan{name: name, initial: initial, readEvery: readEvery}
	schema := initial.Schema()
	var lastRel string
	var lastRow db.Tuple
	for len(p.writes) < n {
		t := g.NextTransaction()
		if len(t.Updates) == 0 {
			// A Delivery with no pending order anywhere: nothing to
			// commit, so nothing to acknowledge or make visible.
			continue
		}
		for _, u := range t.Updates {
			if u.Kind == db.OpInsert {
				lastRel, lastRow = u.Rel, u.Row
			}
		}
		txns := []db.Transaction{t}
		p.writes = append(p.writes, ingest{body: appendSQLLog(nil, schema, txns), txns: txns})
		if readEvery > 0 && len(p.writes)%readEvery == 0 && lastRow != nil {
			p.reads = append(p.reads, readOp{kind: readAnnotation, rel: lastRel, tuple: lastRow})
		}
	}
	return p, nil
}

// asLoadedFromCSV rebuilds the database the way `hyperprov serve -data`
// sees it: relations declared in sorted-name order. The engine numbers
// initial tuple annotations and streams snapshots in declaration order,
// so the oracle must start from the same declaration order as the
// server, not from tpcc.Schema()'s.
func asLoadedFromCSV(d *db.Database) (*db.Database, error) {
	names := append([]string(nil), d.Schema().Names()...)
	sort.Strings(names)
	rels := make([]*db.RelationSchema, len(names))
	for i, name := range names {
		rels[i] = d.Schema().Relation(name)
	}
	schema, err := db.NewSchema(rels...)
	if err != nil {
		return nil, err
	}
	out := db.NewDatabase(schema)
	for _, name := range names {
		for _, t := range d.Instance(name).Tuples() {
			if err := out.InsertTuple(name, t); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func planOLTP(seed int64, n int) (*plan, error) {
	p, err := tpccPlan(wlOLTP, seed, n, oltpReadEvery)
	if err != nil {
		return nil, err
	}
	p.autoIndex = 4
	// Three checkpoints, then a tenth of the log left to replay after
	// the SIGKILL.
	p.ckptEvery = max(1, n*3/10)
	p.recover = true
	return p, nil
}

func planBulk(seed int64, tuples, txns, reads int) (*plan, error) {
	const perTxn = 10
	updates := txns * perTxn
	// Pool = Updates/10 keeps the paper's ≈10 updates per affected
	// tuple; a small pool under a long log grows annotations without
	// bound (Pool 40 with 20 000 updates was OOM-killed past 15 GB).
	cfg := workload.Config{
		Tuples: tuples, Pool: max(1, updates/10), Group: 1, Updates: updates,
		QueriesPerTxn: perTxn, MergeRatio: 0.1, Seed: seed,
	}
	initial, all, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	p := &plan{name: wlBulk, initial: initial, readRate: bulkReadPerSec}
	schema := initial.Schema()
	for len(all) > 0 {
		k := min(bulkBatch, len(all))
		p.writes = append(p.writes, ingest{body: appendSQLLog(nil, schema, all[:k]), txns: all[:k]})
		all = all[k:]
	}
	// Point reads pick initial pool tuples: modified or deleted since,
	// they stay in the support, so every read must answer found.
	r := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	pool := poolTuples(initial, cfg.Pool)
	for i := 0; i < reads; i++ {
		p.reads = append(p.reads, readOp{kind: readAnnotation, rel: "R", tuple: pool[r.Intn(len(pool))]})
	}
	return p, nil
}

// poolTuples returns the initial tuples of the synthetic relation whose
// id lies in the affected pool [0, pool).
func poolTuples(initial *db.Database, pool int) []db.Tuple {
	var out []db.Tuple
	for _, t := range initial.Instance("R").Tuples() {
		if t[0].Int() < int64(pool) {
			out = append(out, t)
		}
	}
	return out
}

func planWhatif(seed int64, tuples, n int) (*plan, error) {
	// A fiftieth of the tuples are in the affected pool, each updated
	// ten times before the timed region: 100 000 / 2 000 / 20 000.
	cfg := workload.Config{
		Tuples: tuples, Pool: tuples / 50, Group: 1, Updates: tuples / 5,
		QueriesPerTxn: 10, Seed: seed,
	}
	initial, history, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	p := &plan{name: wlWhatif, initial: initial, readEvery: 1}
	schema := initial.Schema()
	const preBatch = 100
	for rest := history; len(rest) > 0; {
		k := min(preBatch, len(rest))
		p.pre = append(p.pre, ingest{body: appendSQLLog(nil, schema, rest[:k]), txns: rest[:k]})
		rest = rest[k:]
	}
	// Tuple annotation names are assigned by the engine at load (t0,
	// t1, … in sorted-key order); ask a scratch engine for them.
	names := engine.New(engine.ModeNormalForm, initial)
	pool := poolTuples(initial, cfg.Pool)
	r := rand.New(rand.NewSource(seed ^ 0x0ddba11))
	for i := 0; i < n; i++ {
		// One single-query transaction ahead of every what-if moves the
		// horizon, so a result cache not invalidated by commits shows as
		// a wrong row count.
		grp := int64(r.Intn(cfg.Pool))
		trickle := []db.Transaction{{
			Label: fmt.Sprintf("w%d", i),
			Updates: []db.Update{db.Modify("R",
				db.Pattern{db.AnyVar("id"), db.Const(db.I(grp)), db.AnyVar("cat"), db.AnyVar("val"), db.AnyVar("pad")},
				[]db.SetClause{db.Keep(), db.Keep(), db.Keep(), db.SetTo(db.I(int64(r.Intn(100)))), db.Keep()})},
		}}
		p.writes = append(p.writes, ingest{body: appendSQLLog(nil, schema, trickle), txns: trickle})
		if i%2 == 0 {
			a := names.Annotation("R", pool[r.Intn(len(pool))]).String()
			b := names.Annotation("R", pool[r.Intn(len(pool))]).String()
			p.reads = append(p.reads, readOp{kind: readDeletion, names: []string{a, b}})
		} else {
			p.reads = append(p.reads, readOp{kind: readAbort, names: []string{history[r.Intn(len(history))].Label}})
		}
	}
	return p, nil
}

func planReplica(seed int64, n int) (*plan, error) {
	p, err := tpccPlan(wlReplica, seed, n, 0)
	if err != nil {
		return nil, err
	}
	p.autoIndex = 4
	p.ckptEvery = max(1, n*3/10)
	p.follower = true
	p.writeRate = replicaTxnPerSec
	p.subs = replicaSubs(p, seed)
	return p, nil
}

// replicaSubs builds the 32 subscriptions of the follower stream: 10
// DISTRICT watches (one per district — every New-Order and Payment
// moves exactly one), 10 CUSTOMER watches by district, 6 STOCK watches
// on single items, 3 deletion and 3 abort what-ifs (which every
// non-empty commit moves, because each maintains the whole surviving
// database).
func replicaSubs(p *plan, seed int64) []subscribe.Spec {
	var subs []subscribe.Spec
	for d := 1; d <= 10; d++ {
		subs = append(subs, subscribe.Spec{
			ID: fmt.Sprintf("district%d", d), Kind: subscribe.KindWatch, Rel: tpcc.District,
			Match: []any{float64(d), nil, nil, nil, nil, nil},
		})
	}
	for d := 1; d <= 10; d++ {
		subs = append(subs, subscribe.Spec{
			ID: fmt.Sprintf("customer%d", d), Kind: subscribe.KindWatch, Rel: tpcc.Customer,
			Match: []any{nil, float64(d), nil, nil, nil, nil, nil, nil, nil, nil, nil, nil},
		})
	}
	r := rand.New(rand.NewSource(seed ^ 0xfa110))
	items := p.initial.Instance(tpcc.Item).Len()
	for i := 0; i < 6; i++ {
		subs = append(subs, subscribe.Spec{
			ID: fmt.Sprintf("stock%d", i), Kind: subscribe.KindWatch, Rel: tpcc.Stock,
			Match: []any{float64(1 + r.Intn(items)), nil, nil, nil, nil, nil, nil},
		})
	}
	rows := p.initial.NumTuples()
	for i := 0; i < 3; i++ {
		subs = append(subs, subscribe.Spec{
			ID: fmt.Sprintf("deletion%d", i), Kind: subscribe.KindDeletion,
			Tuples: []string{fmt.Sprintf("t%d", r.Intn(rows)), fmt.Sprintf("t%d", r.Intn(rows))},
		})
	}
	for i := 0; i < 3; i++ {
		subs = append(subs, subscribe.Spec{
			ID: fmt.Sprintf("abort%d", i), Kind: subscribe.KindAbort,
			Labels: []string{p.writes[r.Intn(len(p.writes))].txns[0].Label},
		})
	}
	return subs
}
