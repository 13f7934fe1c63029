package upstruct_test

// Proposition 4.2 as a differential: the valuation kernel must compute
// exactly what the definition-following Eval/EvalNF compute in the
// Boolean structure under the valuation its dead set denotes — on every
// row of seeded histories, through every kind of reader, on the
// expression shapes where difference is fragile, on raw trees, and on
// whatever the parser accepts. Eval is the oracle; it shares nothing
// with the kernel (a tree walk, a map lookup per leaf).

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/tpcc"
	"hyperprov/internal/upstruct"
	"hyperprov/internal/wal"
	"hyperprov/internal/workload"
)

// oracle is the generic valuation a dead set denotes.
func oracle(dead []core.Annot) upstruct.Env[bool] {
	m := make(map[core.Annot]bool, len(dead))
	for _, a := range dead {
		m[a] = false
	}
	return upstruct.MapEnv(m, true)
}

// deadSets names no, one, many, only-unknown and mixed annotations of a
// history with the given labels and tuple-annotation prefix.
func deadSets(labels []string, tuple func(i int) string) map[string][]core.Annot {
	mid := labels[len(labels)/2]
	many := []core.Annot{core.QueryAnnot(labels[0]), core.QueryAnnot(mid), core.QueryAnnot(labels[len(labels)-1])}
	for i := 0; i < 40; i += 3 {
		many = append(many, core.TupleAnnot(tuple(i)))
	}
	return map[string][]core.Annot{
		"none":      nil,
		"one-tuple": {core.TupleAnnot(tuple(1))},
		"one-label": {core.QueryAnnot(mid)},
		"many":      many,
		"unknown":   {core.TupleAnnot("no-such-tuple"), core.QueryAnnot("no-such-txn")},
		"mixed":     {core.TupleAnnot("no-such-tuple"), core.TupleAnnot(tuple(2)), core.QueryAnnot(labels[1])},
	}
}

// checkReader compares the kernel to the oracle on every row r sees.
func checkReader(t *testing.T, name string, r engine.Reader, k *upstruct.Kernel, env upstruct.Env[bool]) {
	t.Helper()
	rows := 0
	r.Rows(func(rel string, tu db.Tuple, ann *core.Expr) {
		rows++
		if got, want := k.Eval(ann), upstruct.Eval(ann, upstruct.Bool, env); got != want {
			t.Fatalf("%s: %s%v: kernel %v, Eval %v on %s", name, rel, tu, got, want, ann)
		}
		if nf := r.NF(rel, tu); nf != nil {
			if got, want := k.EvalNF(nf), upstruct.EvalNF(nf, upstruct.Bool, env); got != want {
				t.Fatalf("%s: %s%v: kernel EvalNF %v, EvalNF %v", name, rel, tu, got, want)
			}
		}
	})
	if rows == 0 {
		t.Fatalf("%s: reader has no rows", name)
	}
}

// TestKernelEqualsEvalOnHistories: TPC-C and the §6.2 synthetic
// workload × both modes (and the naive mode's copy-on-write raw trees);
// each dead set once with a kernel built before the history ran — its
// names unknown, its memo filled epoch by epoch — and once with a fresh
// kernel at the end. The shards=8 subtests open the engine with the
// deprecated engine.WithShards(8), which must change nothing.
func TestKernelEqualsEvalOnHistories(t *testing.T) {
	g := tpcc.NewGenerator(tpcc.Scaled(0.003))
	tpInitial, err := g.InitialDatabase()
	if err != nil {
		t.Fatal(err)
	}
	synInitial, synTxns, err := workload.Generate(workload.Config{
		Tuples: 400, Pool: 40, Group: 3, Updates: 120, QueriesPerTxn: 3, MergeRatio: 0.4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	histories := []struct {
		name    string
		initial *db.Database
		txns    []db.Transaction
	}{{"tpcc", tpInitial, g.Transactions(80)}, {"synthetic", synInitial, synTxns}}
	type config struct {
		name string
		mode engine.Mode
		opts []engine.Option
	}
	configs := []config{
		{"naive", engine.ModeNaive, nil},
		{"naive-cow", engine.ModeNaive, []engine.Option{engine.WithCopyOnWrite(true)}},
		{"nf", engine.ModeNormalForm, nil},
	}
	for _, h := range histories {
		labels := make([]string, len(h.txns))
		for i := range h.txns {
			labels[i] = h.txns[i].Label
		}
		sets := deadSets(labels, func(i int) string { return "t" + strconv.Itoa(i) })
		for _, cfg := range configs {
			for _, shards := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/%s/shards=%d", h.name, cfg.name, shards), func(t *testing.T) {
					d := engine.Open(cfg.mode, h.initial, append([]engine.Option{engine.WithShards(shards)}, cfg.opts...)...)
					early := make(map[string]*upstruct.Kernel, len(sets))
					for name, dead := range sets {
						early[name] = upstruct.NewKernel(upstruct.Dead(dead...))
					}
					for i := range h.txns {
						if err := d.ApplyTransaction(&h.txns[i]); err != nil {
							t.Fatal(err)
						}
						if i%16 == 0 {
							for name, dead := range sets {
								checkReader(t, fmt.Sprintf("%s/early@%d", name, i), d, early[name], oracle(dead))
							}
						}
					}
					mid := d.At(engine.EpochSeq(uint64(len(h.txns) / 2)))
					for name, dead := range sets {
						env := oracle(dead)
						checkReader(t, name+"/early", d, early[name], env)
						fresh := upstruct.NewKernel(upstruct.Dead(dead...))
						checkReader(t, name+"/fresh", d, fresh, env)
						checkReader(t, name+"/fresh-view", mid, fresh, env)
					}
				})
			}
		}
	}
}

// TestKernelOnStoreAndFollower: the same comparison through the
// persistent readers — a wal.Store and a wal.Follower replaying it.
func TestKernelOnStoreAndFollower(t *testing.T) {
	g := tpcc.NewGenerator(tpcc.Scaled(0.003))
	initial, err := g.InitialDatabase()
	if err != nil {
		t.Fatal(err)
	}
	txns := g.Transactions(60)
	st, err := wal.Open(t.TempDir(), wal.WithMode(engine.ModeNormalForm), wal.WithInitialDatabase(initial), wal.WithSync(wal.SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		from, err := strconv.ParseUint(req.URL.Query().Get("from"), 10, 64)
		if err != nil {
			http.Error(w, "bad from", http.StatusBadRequest)
			return
		}
		_ = st.ServeStream(req.Context(), w, from)
	}))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f, err := wal.OpenFollower(ctx, t.TempDir(), wal.HTTPSource(ts.URL, nil), wal.WithSync(wal.SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := st.ApplyAll(ctx, txns); err != nil {
		t.Fatal(err)
	}
	for f.ReplicaStats().AppliedLSN < st.LSN() {
		if ctx.Err() != nil {
			t.Fatalf("follower stuck at LSN %d of %d", f.ReplicaStats().AppliedLSN, st.LSN())
		}
		time.Sleep(time.Millisecond)
	}
	labels := make([]string, len(txns))
	for i := range txns {
		labels[i] = txns[i].Label
	}
	for name, dead := range deadSets(labels, func(i int) string { return "t" + strconv.Itoa(i) }) {
		k := upstruct.NewKernel(upstruct.Dead(dead...))
		checkReader(t, name+"/store", st, k, oracle(dead))
		checkReader(t, name+"/follower", f, k, oracle(dead))
	}
}

var shapeVars = []core.Annot{
	core.TupleAnnot("a"), core.TupleAnnot("b"), core.TupleAnnot("c"), core.QueryAnnot("p"), core.QueryAnnot("q"),
}

// checkAllValuations compares kernel and oracle on e under every dead
// subset of shapeVars, with one kernel per subset reused across calls
// (kernels[mask]), so memo entries written for one expression are read
// back for the next.
func checkAllValuations(t *testing.T, kernels []*upstruct.Kernel, e *core.Expr) {
	t.Helper()
	for mask := range kernels {
		var dead []core.Annot
		for i, a := range shapeVars {
			if mask>>i&1 == 1 {
				dead = append(dead, a)
			}
		}
		if kernels[mask] == nil {
			kernels[mask] = upstruct.NewKernel(upstruct.Dead(dead...))
		}
		if got, want := kernels[mask].Eval(e), upstruct.Eval(e, upstruct.Bool, oracle(dead)); got != want {
			t.Fatalf("dead %v: kernel %v, Eval %v on %s (interned=%v)", dead, got, want, e, e.Interned())
		}
	}
}

// TestKernelOnFragileShapes: the shapes Amsterdamer, Deutch and Tannen
// single out — difference does not distribute, so a kernel that
// rewrote anything would get them wrong — plus random expressions,
// their DeepCopy raw trees and raw parents over canonical children,
// exhaustively over all 32 valuations of five annotations.
func TestKernelOnFragileShapes(t *testing.T) {
	v := func(i int) *core.Expr { return core.Var(shapeVars[i]) }
	a, b, c, p, q := v(0), v(1), v(2), v(3), v(4)
	shapes := map[string]*core.Expr{
		"delete-then-reinsert":   core.PlusI(core.Minus(a, p), q),
		"reinsert-then-delete":   core.Minus(core.PlusI(core.Minus(a, p), q), q),
		"modify-onto-dead-tuple": core.PlusM(core.Minus(a, p), core.DotM(core.Sum(b, c), q)),
		"modify-from-dead-tuple": core.PlusM(b, core.DotM(core.Minus(a, p), q)),
		"monus-absorbs-sum":      core.Minus(core.Sum(a, b), b),
		"monus-of-monus":         core.Minus(a, core.Minus(b, c)),
		"monus-chain":            core.Minus(core.Minus(a, b), c),
		"monus-self":             core.Minus(a, core.Minus(a, b)),
		"monus-under-product":    core.DotM(core.Minus(core.Sum(a, b), a), p),
		"sum-of-monus":           core.Sum(core.Minus(a, b), core.Minus(b, a)),
		"zero-operands":          core.PlusM(core.Minus(core.Zero(), p), core.DotM(core.Zero(), q)),
		"zero":                   core.Zero(),
	}
	kernels := make([]*upstruct.Kernel, 1<<len(shapeVars))
	for name, e := range shapes {
		t.Run(name, func(t *testing.T) {
			checkAllValuations(t, kernels, e)
			checkAllValuations(t, kernels, e.DeepCopy())
			checkAllValuations(t, kernels, core.PlusI(e.DeepCopy(), e)) // a raw parent over a canonical child
		})
	}

	rng := rand.New(rand.NewSource(7))
	var random func(depth int) *core.Expr
	random = func(depth int) *core.Expr {
		if depth == 0 || rng.Intn(4) == 0 {
			if rng.Intn(8) == 0 {
				return core.Zero()
			}
			return v(rng.Intn(len(shapeVars)))
		}
		l, r := random(depth-1), random(depth-1)
		switch rng.Intn(6) {
		case 0:
			return core.PlusI(l, r)
		case 1:
			return core.PlusM(l, r)
		case 2:
			return core.DotM(l, r)
		case 3:
			return core.Sum(l, r, random(depth-1))
		default: // difference twice as often: it is the fragile one
			return core.Minus(l, r)
		}
	}
	for i := 0; i < 300; i++ {
		e := random(6)
		checkAllValuations(t, kernels, e)
		if i%3 == 0 {
			checkAllValuations(t, kernels, e.DeepCopy())
		}
	}
}

// TestKernelEvalNFShapes: all five normal-form shapes of Theorem 5.3
// (committed rows only ever hold the first), under every valuation.
func TestKernelEvalNFShapes(t *testing.T) {
	v := func(i int) *core.Expr { return core.Var(shapeVars[i]) }
	p := shapeVars[3]
	build := map[string]func(n *core.NF){
		"base":      func(n *core.NF) {},
		"plusI":     func(n *core.NF) { n.Insert(p) },
		"minus":     func(n *core.NF) { n.Delete(p) },
		"mod":       func(n *core.NF) { n.AbsorbMod([]*core.Expr{v(1), core.Minus(v(2), v(4))}, false, p) },
		"minus-mod": func(n *core.NF) { n.Delete(p); n.AbsorbMod([]*core.Expr{v(1), v(2)}, false, p) },
	}
	bases := []*core.Expr{core.Zero(), v(0), core.Minus(v(0), v(4)), core.PlusI(core.Minus(v(0), v(4)), v(4)).DeepCopy()}
	for name, shape := range build {
		for _, base := range bases {
			n := core.NewNF(base)
			shape(n)
			for mask := 0; mask < 1<<len(shapeVars); mask++ {
				var dead []core.Annot
				for i, a := range shapeVars {
					if mask>>i&1 == 1 {
						dead = append(dead, a)
					}
				}
				k := upstruct.NewKernel(upstruct.Dead(dead...))
				if got, want := k.EvalNF(n), upstruct.EvalNF(n, upstruct.Bool, oracle(dead)); got != want {
					t.Fatalf("%s over %s, dead %v: kernel %v, EvalNF %v", name, base, dead, got, want)
				}
				if got, want := k.Eval(n.ToExpr()), k.EvalNF(n); got != want {
					t.Fatalf("%s over %s, dead %v: Eval(ToExpr) %v, EvalNF %v", name, base, dead, got, want)
				}
			}
		}
	}
}

// TestKernelResetAndUnknownNames: a pooled kernel rebound to another
// valuation forgets everything, and naming an annotation the database
// has never seen interns nothing.
func TestKernelResetAndUnknownNames(t *testing.T) {
	a, b := core.TupleVar("reset-a"), core.TupleVar("reset-b")
	e := core.Minus(core.Sum(a, b), b)
	k := upstruct.NewKernel(upstruct.Dead(core.TupleAnnot("reset-b")))
	if !k.Eval(e) || !k.Eval(e) {
		t.Fatal("(a+b)-b with b dead must hold")
	}
	k.Reset(upstruct.Dead(core.TupleAnnot("reset-a")))
	if k.Eval(e) {
		t.Fatal("after Reset the kernel answered from the previous valuation's memo")
	}
	before := core.InternStats().Nodes
	upstruct.Dead(core.TupleAnnot("never-seen-1"), core.QueryAnnot("never-seen-2"))
	if after := core.InternStats().Nodes; after != before {
		t.Fatalf("building a valuation interned %d nodes", after-before)
	}
	if core.LookupVar(core.TupleAnnot("never-seen-1")) != nil || core.LookupVar(core.TupleAnnot("reset-a")) != a {
		t.Fatal("LookupVar does not agree with the intern table")
	}
}

// TestKernelPendingLeavesAllocateNothing: range leaves minted after
// their valuation, which named one of them while it had no node, are
// valued by IsVar against the pending name, without building any
// leaf's name: the dead one comes out false, the others true, and a
// pass over all of them allocates nothing.
func TestKernelPendingLeavesAllocateNothing(t *testing.T) {
	k := upstruct.NewKernel(upstruct.Dead(core.TupleAnnot("pendalloc40")))
	leaves := core.Vars("pendalloc", core.KindTuple, 0, 64)
	for i, e := range leaves {
		if got := k.Eval(e); got != (i != 40) {
			t.Fatalf("leaf pendalloc%d valued %v", i, got)
		}
	}
	pass := func() {
		for _, e := range leaves {
			k.Eval(e)
		}
	}
	if n := testing.AllocsPerRun(100, pass); n != 0 {
		t.Fatalf("a kernel pass over 64 range leaves with a pending dead name allocates %.0f times, want 0", n)
	}
}

// FuzzKernelEqualsEval: for any expression the parser accepts, kernel
// and oracle agree under dead sets drawn from the expression's own
// annotations, on the canonical DAG and on its raw copy.
func FuzzKernelEqualsEval(f *testing.F) {
	for _, seed := range []string{
		"0", "a", "(a - p) +I q", "(a + b) - b", "a - (b - c)", "(a - p) +M ((b + c) *M q)",
		"((a - p) +M ((b0 + b1) *M p)) +I q", "(a - a) + (b *M 0)", "a - (a - (a - a))", "((", "a +M",
	} {
		f.Add(seed, uint8(5))
	}
	kindOf := func(name string) core.AnnotKind {
		if strings.HasPrefix(name, "p") || strings.HasPrefix(name, "q") {
			return core.KindQuery
		}
		return core.KindTuple
	}
	f.Fuzz(func(t *testing.T, src string, pick uint8) {
		e, err := core.ParseExpr(src, kindOf)
		if err != nil {
			return
		}
		var annots []core.Annot
		for a := range e.Annots(nil) {
			annots = append(annots, a)
		}
		var some []core.Annot
		for i, a := range annots {
			if pick>>(i%8)&1 == 1 {
				some = append(some, a)
			}
		}
		for _, dead := range [][]core.Annot{nil, some, annots, append([]core.Annot{core.TupleAnnot("fuzz-unknown")}, some...)} {
			k, env := upstruct.NewKernel(upstruct.Dead(dead...)), oracle(dead)
			for _, x := range []*core.Expr{e, e.DeepCopy(), e} {
				if got, want := k.Eval(x), upstruct.Eval(x, upstruct.Bool, env); got != want {
					t.Fatalf("%q, dead %v: kernel %v, Eval %v (interned=%v)", src, dead, got, want, x.Interned())
				}
			}
		}
	})
}
