// Package workload generates the synthetic dataset and update sequences
// of the paper's experimental evaluation (Sections 6.1 and 6.3): a large
// uniformly random table and sequences of hyperplane update queries with
// a uniformly random type mix, whose selections go over a numeric
// column. Two knobs control the experiments of Figure 9: the total
// number of tuples a transaction may affect (the "pool"), and the number
// of tuples affected by each individual query (the "group" selected by
// the numeric column).
package workload

import (
	"fmt"
	"math/rand"

	"hyperprov/internal/db"
)

// Config parameterizes the generator. The defaults (via Default) follow
// Section 6.2: a 1M-tuple table scaled down by the caller, 200 affected
// tuples (0.02%), one tuple per query.
type Config struct {
	// Tuples is the initial table size (the paper uses 1,000,000).
	Tuples int
	// Pool is the total number of distinct initial tuples that the
	// update sequence may affect (the paper's "affected tuples",
	// 200–1000 in Figure 9a).
	Pool int
	// Group is the number of tuples affected by each delete/modify
	// query (Figure 9b varies this from 200 to 1000; elsewhere it is 1).
	Group int
	// Updates is the number of update queries to generate.
	Updates int
	// QueriesPerTxn groups consecutive queries under one transaction
	// annotation (1 = one annotation per query).
	QueriesPerTxn int
	// MergeRatio is the fraction of modification queries that collapse
	// their whole group into a single tuple, exercising Σ provenance.
	MergeRatio float64
	// Seed makes generation deterministic.
	Seed int64
}

// Default returns the Section 6.2 configuration at the given scale
// factor: scale=1.0 is the paper's 1M-tuple table with a 200-tuple pool
// and 2000 updates.
func Default(scale float64) Config {
	n := int(1_000_000 * scale)
	if n < 100 {
		n = 100
	}
	pool := n / 5000 // 0.02%
	if pool < 10 {
		pool = 10
	}
	// The update count scales with the database so that the paper's
	// ratio of ~10 updates per affected tuple is preserved at every
	// scale: the naive representation grows combinatorially in
	// updates-per-tuple (Proposition 5.1), so a fixed 2000-update log
	// over a tiny pool would not be a scaled-down version of the
	// paper's experiment but a different (adversarial) one.
	updates := int(2000 * scale)
	if updates < 20 {
		updates = 20
	}
	return Config{
		Tuples:        n,
		Pool:          pool,
		Group:         1,
		Updates:       updates,
		QueriesPerTxn: 10, // TPC-C-like transaction length
		MergeRatio:    0.1,
		Seed:          1,
	}
}

// Schema returns the synthetic relation: an id, the numeric selection
// column grp, a categorical column, a numeric payload val and a string
// payload.
func Schema() *db.Schema {
	return db.MustSchema(db.MustRelationSchema("R",
		db.Attribute{Name: "id", Kind: db.KindInt},
		db.Attribute{Name: "grp", Kind: db.KindInt},
		db.Attribute{Name: "cat", Kind: db.KindString},
		db.Attribute{Name: "val", Kind: db.KindInt},
		db.Attribute{Name: "pad", Kind: db.KindString},
	))
}

var cats = []string{"alpha", "beta", "gamma", "delta"}

// Generate builds the initial database and the update-query sequence for
// the configuration. The first cfg.Pool tuples form the affected pool,
// partitioned into groups of cfg.Group consecutive tuples sharing a grp
// value; all other tuples carry grp values no query selects. Query types
// are drawn uniformly (insert / delete / modify); deletes and modifies
// select one pool group through the numeric grp column, and inserts add
// fresh tuples into a pool group.
func Generate(cfg Config) (*db.Database, []db.Transaction, error) {
	if cfg.Group <= 0 {
		cfg.Group = 1
	}
	if cfg.Pool <= 0 || cfg.Pool > cfg.Tuples {
		return nil, nil, fmt.Errorf("workload: pool %d out of range (tuples %d)", cfg.Pool, cfg.Tuples)
	}
	if cfg.Group > cfg.Pool {
		return nil, nil, fmt.Errorf("workload: group %d exceeds pool %d", cfg.Group, cfg.Pool)
	}
	if cfg.QueriesPerTxn <= 0 {
		cfg.QueriesPerTxn = 1
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	d := db.NewDatabase(Schema())
	groups := cfg.Pool / cfg.Group
	if groups == 0 {
		groups = 1
	}
	for i := 0; i < cfg.Tuples; i++ {
		grp := int64(-1 - i) // unaffected region: unique negative grp
		if i < cfg.Pool {
			grp = int64(i % groups)
		}
		t := db.Tuple{
			db.I(int64(i)),
			db.I(grp),
			db.S(cats[r.Intn(len(cats))]),
			db.I(int64(r.Intn(100))),
			db.S("payload"),
		}
		if err := d.InsertTuple("R", t); err != nil {
			return nil, nil, err
		}
	}
	nextID := int64(cfg.Tuples)
	var txns []db.Transaction
	var cur *db.Transaction
	for q := 0; q < cfg.Updates; q++ {
		if cur == nil || len(cur.Updates) == cfg.QueriesPerTxn {
			txns = append(txns, db.Transaction{Label: fmt.Sprintf("q%d", len(txns))})
			cur = &txns[len(txns)-1]
		}
		grp := int64(r.Intn(groups))
		sel := db.Pattern{
			db.AnyVar("id"),
			db.Const(db.I(grp)),
			db.AnyVar("cat"),
			db.AnyVar("val"),
			db.AnyVar("pad"),
		}
		switch r.Intn(3) {
		case 0: // insert a fresh tuple into the selected pool group
			t := db.Tuple{
				db.I(nextID),
				db.I(grp),
				db.S(cats[r.Intn(len(cats))]),
				db.I(int64(r.Intn(100))),
				db.S("payload"),
			}
			nextID++
			cur.Updates = append(cur.Updates, db.Insert("R", t))
		case 1: // delete the selected group
			cur.Updates = append(cur.Updates, db.Delete("R", sel))
		default: // modify the selected group
			set := []db.SetClause{db.Keep(), db.Keep(), db.Keep(), db.SetTo(db.I(int64(r.Intn(100)))), db.Keep()}
			if r.Float64() < cfg.MergeRatio {
				// Collapse the whole group into one tuple.
				set[0] = db.SetTo(db.I(nextID))
				nextID++
			}
			cur.Updates = append(cur.Updates, db.Modify("R", sel, set))
		}
	}
	return d, txns, nil
}

// GeneratePinned builds an initial database and an update sequence in
// which every selection is a fully pinned constant pattern: each delete
// and modify names one concrete live tuple (tracked through a mirror of
// the database state). Such updates resolve with the planner's O(1)
// point lookup instead of an O(rows) scan. The chaos and replication
// tests use it for a log whose every update names its row.
func GeneratePinned(cfg Config) (*db.Database, []db.Transaction, error) {
	if cfg.QueriesPerTxn <= 0 {
		cfg.QueriesPerTxn = 1
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	d := db.NewDatabase(Schema())
	live := make([]db.Tuple, 0, cfg.Tuples)
	for i := 0; i < cfg.Tuples; i++ {
		t := db.Tuple{
			db.I(int64(i)),
			db.I(int64(i)),
			db.S(cats[r.Intn(len(cats))]),
			db.I(int64(r.Intn(100))),
			db.S("payload"),
		}
		if err := d.InsertTuple("R", t); err != nil {
			return nil, nil, err
		}
		live = append(live, t)
	}
	nextID := int64(cfg.Tuples)
	// Modified tuples receive globally fresh val values so that a modify
	// never collides with (and merges into) another live tuple: the
	// mirror then remains an exact image of the database.
	nextVal := int64(1_000_000)
	var txns []db.Transaction
	var cur *db.Transaction
	for q := 0; q < cfg.Updates; q++ {
		if cur == nil || len(cur.Updates) == cfg.QueriesPerTxn {
			txns = append(txns, db.Transaction{Label: fmt.Sprintf("q%d", len(txns))})
			cur = &txns[len(txns)-1]
		}
		op := r.Intn(3)
		if len(live) == 0 {
			op = 0
		}
		switch op {
		case 0: // insert a fresh tuple
			t := db.Tuple{
				db.I(nextID),
				db.I(nextID),
				db.S(cats[r.Intn(len(cats))]),
				db.I(int64(r.Intn(100))),
				db.S("payload"),
			}
			nextID++
			cur.Updates = append(cur.Updates, db.Insert("R", t))
			live = append(live, t)
		case 1: // delete one concrete live tuple
			i := r.Intn(len(live))
			t := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			cur.Updates = append(cur.Updates, db.Delete("R", db.ConstPattern(t)))
		default: // modify one concrete live tuple's payload value
			i := r.Intn(len(live))
			t := live[i]
			set := []db.SetClause{db.Keep(), db.Keep(), db.Keep(), db.SetTo(db.I(nextVal)), db.Keep()}
			nt := append(db.Tuple(nil), t...)
			nt[3] = db.I(nextVal)
			nextVal++
			live[i] = nt
			cur.Updates = append(cur.Updates, db.Modify("R", db.ConstPattern(t), set))
		}
	}
	return d, txns, nil
}

// GenerateMultiColumn builds an initial database and an update sequence
// whose selections pin *some* columns — the workload the scan planner is
// for. Tuples are spread over cfg.Tuples/cfg.Group grp values and the
// four cat values; deletes and modifies draw their selection shape from
// a fixed mix:
//
//   - grp pinned, everything else free (single-index scan),
//   - grp and cat both pinned (multi-candidate: planner walks the
//     shorter posting list),
//   - grp pinned with a ≠ constraint on cat (mixed =/≠: the = column
//     can use its index, the ≠ filters per row),
//   - rarely, only a ≠ constraint on cat (no =-pinned column: the
//     planner's full-scan fallback, excluding every cat so the shape
//     costs a scan but matches nothing).
//
// No selection pins every attribute, so every delete/modify goes
// through a posting-list or full scan, never through the point lookup.
func GenerateMultiColumn(cfg Config) (*db.Database, []db.Transaction, error) {
	if cfg.Group <= 0 {
		cfg.Group = 1
	}
	if cfg.QueriesPerTxn <= 0 {
		cfg.QueriesPerTxn = 1
	}
	groups := cfg.Tuples / cfg.Group
	if groups <= 0 {
		groups = 1
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	d := db.NewDatabase(Schema())
	for i := 0; i < cfg.Tuples; i++ {
		t := db.Tuple{
			db.I(int64(i)),
			db.I(int64(i % groups)),
			db.S(cats[i%len(cats)]),
			db.I(int64(r.Intn(100))),
			db.S("payload"),
		}
		if err := d.InsertTuple("R", t); err != nil {
			return nil, nil, err
		}
	}
	nextID := int64(cfg.Tuples)
	var txns []db.Transaction
	var cur *db.Transaction
	for q := 0; q < cfg.Updates; q++ {
		if cur == nil || len(cur.Updates) == cfg.QueriesPerTxn {
			txns = append(txns, db.Transaction{Label: fmt.Sprintf("q%d", len(txns))})
			cur = &txns[len(txns)-1]
		}
		grp := int64(r.Intn(groups))
		cat := cats[r.Intn(len(cats))]
		sel := db.Pattern{
			db.AnyVar("id"),
			db.Const(db.I(grp)),
			db.AnyVar("cat"),
			db.AnyVar("val"),
			db.AnyVar("pad"),
		}
		switch shape := r.Intn(20); {
		case shape < 5: // grp and cat both pinned
			sel[2] = db.Const(db.S(cat))
		case shape < 10: // grp pinned, cat ≠-constrained
			sel[2] = db.VarNotEq("cat", db.S(cat))
		case shape == 10: // ≠-only: no =-pinned column, full-scan fallback.
			// Excluding every cat makes the selection match nothing, so
			// the shape costs exactly one relation scan on every access
			// path — it exercises the planner's fallback without the
			// O(n) annotation churn a broad ≠ match would add to both
			// sides of a comparison.
			notEq := make([]db.Value, len(cats))
			for i, c := range cats {
				notEq[i] = db.S(c)
			}
			sel[1] = db.AnyVar("grp")
			sel[2] = db.VarNotEq("cat", notEq...)
		}
		switch r.Intn(4) {
		case 0: // insert a fresh tuple into the selected group
			t := db.Tuple{
				db.I(nextID),
				db.I(grp),
				db.S(cat),
				db.I(int64(r.Intn(100))),
				db.S("payload"),
			}
			nextID++
			cur.Updates = append(cur.Updates, db.Insert("R", t))
		case 1: // delete the selection
			cur.Updates = append(cur.Updates, db.Delete("R", sel))
		default: // modify the selection's payload value
			set := []db.SetClause{db.Keep(), db.Keep(), db.Keep(), db.SetTo(db.I(int64(r.Intn(100)))), db.Keep()}
			cur.Updates = append(cur.Updates, db.Modify("R", sel, set))
		}
	}
	return d, txns, nil
}

// PoolAnnotName names the annotation of the i'th pool tuple when engines
// are constructed with InitialAnnotations (see InitialAnnotations).
func PoolAnnotName(id int64) string { return fmt.Sprintf("x%d", id) }

// InitialAnnotations returns an annotation naming function that names
// every tuple after its id column, so experiments can target specific
// pool tuples for deletion propagation.
func InitialAnnotations() func(rel string, t db.Tuple) string {
	return func(rel string, t db.Tuple) string {
		return PoolAnnotName(t[0].Int())
	}
}
