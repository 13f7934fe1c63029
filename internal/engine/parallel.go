package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/upstruct"
)

// walkChunkRows is the unit of work of the chunked walker: workers pull
// chunks of this many rows until none are left, so a skewed relation or
// a slow worker never leaves the others idle, and a per-chunk result
// (a tuple slice, an encoded buffer) stays cache-sized. Cancellation is
// observed between chunks, i.e. within about a millisecond of
// evaluation.
const walkChunkRows = 1024

// rowChunk is one relation-homogeneous run of at most walkChunkRows
// rows.
type rowChunk struct {
	rel  string
	rows []*row
}

// chunkPool recycles the chunk descriptor slices of the parallel
// passes. Unlike the writer-owned scan-buffer free-list, parallel
// passes run concurrently on the reader side, so this scratch really
// needs sync.Pool. Descriptors are cleared on put so the pool never
// pins row snapshots.
var chunkPool = sync.Pool{
	New: func() any {
		s := make([]rowChunk, 0, 128)
		return &s
	},
}

func putChunkBuf(chunks []rowChunk) {
	clear(chunks[:cap(chunks)])
	chunks = chunks[:0]
	chunkPool.Put(&chunks)
}

// chunks cuts every relation's visible rows into fixed-size pieces in
// the deterministic global order (schema order, then insertion order),
// in a pooled buffer the caller returns through putChunkBuf.
func (v view) chunks() []rowChunk {
	chunks := (*chunkPool.Get().(*[]rowChunk))[:0]
	for _, rel := range v.e.schema.Names() {
		rows := v.rows(rel)
		for start := 0; start < len(rows); start += walkChunkRows {
			end := min(start+walkChunkRows, len(rows))
			chunks = append(chunks, rowChunk{rel: rel, rows: rows[start:end]})
		}
	}
	return chunks
}

// walkChunks is the one parallel loop of the package: up to workers
// goroutines (the caller's own when one suffices) pull chunk indexes
// from a shared counter and run the visitor newVisit built for them, so
// a visitor may keep worker-private scratch — among it the evaluator
// newVisit also returns, which goes back to its pool (putEval) when the
// worker has pulled its last chunk. ctx is checked before every pull;
// on cancellation chunks already started still complete and ctx.Err()
// is returned.
func walkChunks(ctx context.Context, chunks []rowChunk, workers int, newVisit func() (visit func(i int, c rowChunk), ev boolEval)) error {
	var next atomic.Int64
	pull := func() {
		visit, ev := newVisit()
		defer putEval(ev)
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= len(chunks) {
				return
			}
			visit(i, chunks[i])
		}
	}
	if workers = min(workers, len(chunks)); workers <= 1 {
		pull()
		return ctx.Err()
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			pull()
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// SpecializeParallel is Specialize with row evaluation spread over
// workers goroutines (0 = GOMAXPROCS). Expressions are immutable and
// the structure's operations must be pure, so evaluation parallelizes
// trivially; f is called from multiple goroutines and must be safe for
// concurrent use (or accumulate per chunk as LiveChunks does). With one
// worker rows stream in order on the caller's goroutine: that is
// Specialize. The MVCC horizon is pinned once at entry (a View's own
// pinned horizon is used as-is), so the pass is lock-free and
// consistent against concurrent writers. ctx is
// checked at chunk boundaries; on cancellation the pass stops early —
// chunks already started still complete — and ctx.Err() is returned.
// This is a beyond-the-paper extension: provenance usage is the
// measurement of Figures 7c/8c, and valuation is embarrassingly
// parallel, unlike the re-execution baseline.
func SpecializeParallel[T any](ctx context.Context, e Reader, s upstruct.Structure[T], env upstruct.Env[T], workers int, f func(rel string, t db.Tuple, v T)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := e.view()
	chunks := p.chunks()
	defer putChunkBuf(chunks)
	visit := func(_ int, c rowChunk) {
		for _, r := range c.rows {
			if ver := r.at(p.s); ver != nil {
				f(c.rel, r.tuple, upstruct.EvalNF(&ver.nf, s, env))
			}
		}
	}
	return walkChunks(ctx, chunks, workers, func() (func(int, rowChunk), boolEval) { return visit, nil })
}

// Chunk describes one piece of a LiveChunks pass: a run of up to
// walkChunkRows rows of one relation.
type Chunk struct {
	// Rel is the relation the chunk's rows belong to.
	Rel string
	// Rows counts the rows evaluated, live or not.
	Rows int
}

// boolEval evaluates annotations under one Boolean valuation: a
// valuation kernel, or the generic tree walk under an opaque Env.
type boolEval interface {
	EvalNF(*core.NF) bool
}

// envEval is the generic EvalNF in the Boolean structure.
type envEval struct{ env upstruct.Env[bool] }

func (e envEval) EvalNF(n *core.NF) bool { return upstruct.EvalNF(n, upstruct.Bool, e.env) }

// kernelPool recycles the what-if workers' valuation kernels, so a
// request's memo pages are cleared, not allocated.
var kernelPool = sync.Pool{New: func() any { return upstruct.NewKernel(nil) }}

// LiveChunks evaluates the Boolean valuation val over every row r sees
// and calls visit once per chunk — from the worker goroutine that
// evaluated it — with the chunk's live tuples (those whose provenance
// came out true) in insertion order. live is worker scratch, valid
// only during the call. The visit results come back in chunk order —
// relations in schema order, rows in insertion order — so
// concatenating what they hold reproduces the sequential BoolRestrict
// order for any workers; chunks with no live tuple are
// visited too. Nothing is materialized per row: this is the building
// block for consumers that fold live tuples straight into their own
// output (the HTTP server into response bytes). Each worker evaluates
// through its own pooled upstruct.Kernel, so a sub-expression shared
// between rows is computed once per worker. Horizon pinning, workers
// and ctx behave as in SpecializeParallel; on cancellation the results
// are dropped and (nil, ctx.Err()) is returned.
func LiveChunks[R any](ctx context.Context, r Reader, val *upstruct.Valuation, workers int, visit func(c Chunk, live []db.Tuple) R) ([]R, error) {
	return liveChunks(ctx, r, workers, func() boolEval {
		k := kernelPool.Get().(*upstruct.Kernel)
		k.Reset(val)
		return k
	}, visit)
}

// putEval returns a worker's kernel to the pool when the worker is done.
func putEval(ev boolEval) {
	if k, pooled := ev.(*upstruct.Kernel); pooled {
		kernelPool.Put(k)
	}
}

// liveChunks is LiveChunks over any evaluator: newEval builds one
// worker's.
func liveChunks[R any](ctx context.Context, r Reader, workers int, newEval func() boolEval, visit func(c Chunk, live []db.Tuple) R) ([]R, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := r.view()
	chunks := p.chunks()
	defer putChunkBuf(chunks)
	out := make([]R, len(chunks))
	err := walkChunks(ctx, chunks, workers, func() (func(int, rowChunk), boolEval) {
		ev := newEval()
		live := make([]db.Tuple, 0, walkChunkRows)
		return func(i int, c rowChunk) {
			live = live[:0]
			for _, r := range c.rows {
				if ver := r.at(p.s); ver != nil && ev.EvalNF(&ver.nf) {
					live = append(live, r.tuple)
				}
			}
			out[i] = visit(Chunk{Rel: c.rel, Rows: len(c.rows)}, live)
		}, ev
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// BoolRestrictParallel materializes the database selected by a Boolean
// valuation using parallel evaluation: the LiveChunks walk under the
// generic evaluator (env is opaque, so there is nothing to resolve or
// memoise), with each chunk's live tuples copied out and inserted in
// chunk order, so the result's insertion order is the same for any
// worker count (BoolRestrict is this with one), view or
// wrapper. env must be safe for concurrent use. On cancellation,
// (nil, ctx.Err()) is returned.
func BoolRestrictParallel(ctx context.Context, e Reader, env upstruct.Env[bool], workers int) (*db.Database, error) {
	type hits struct {
		rel    string
		tuples []db.Tuple
	}
	chunks, err := liveChunks(ctx, e, workers, func() boolEval { return envEval{env} }, func(c Chunk, live []db.Tuple) hits {
		return hits{rel: c.Rel, tuples: append([]db.Tuple(nil), live...)}
	})
	if err != nil {
		return nil, err
	}
	out := db.NewDatabase(e.Schema())
	for _, h := range chunks {
		for _, t := range h.tuples {
			// Tuples stored by the engine conform by construction.
			_ = out.InsertTuple(h.rel, t)
		}
	}
	return out, nil
}
