package engine

import (
	"context"
	"runtime"
	"sync"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/upstruct"
)

// walkChunkRows is the unit of work of the chunk pipeline (liveStream):
// workers take chunks of this many rows from its queue, so a skewed
// relation is spread over all of them, and a per-chunk result (a tuple
// slice, an encoded buffer) stays cache-sized. Cancellation is observed
// between chunks, i.e. within about a millisecond of evaluation.
const walkChunkRows = 1024

// rowChunk is one relation-homogeneous run of at most walkChunkRows
// rows of table tbl: its positions [lo, hi). From position walkChunkRows
// on, a piece is one chunk of the table's columns.
type rowChunk struct {
	rel    string
	tbl    *table
	lo, hi int
}

// chunkBufs recycles the chunk descriptor slices of the parallel
// passes, cleared on put so a kept slice pins no table. Max is four
// request-scoped passes a CPU; a kept slice is 128 descriptors (5 kB)
// unless a pass grew it.
var chunkBufs = db.FreeList[*[]rowChunk]{Max: 4 * runtime.NumCPU(), New: func() *[]rowChunk {
	s := make([]rowChunk, 0, 128)
	return &s
}}

func putChunkBuf(chunks []rowChunk) {
	clear(chunks[:cap(chunks)])
	chunks = chunks[:0]
	chunkBufs.Put(&chunks)
}

// chunks cuts the visible rows of each relation in rels, in that order,
// into fixed-size pieces in insertion order, in a recycled buffer the
// caller returns through putChunkBuf.
func (v view) chunks(rels []string) []rowChunk {
	chunks := (*chunkBufs.Get())[:0]
	for _, rel := range rels {
		tbl, n := v.rows(rel)
		for lo := 0; lo < n; lo += walkChunkRows {
			chunks = append(chunks, rowChunk{rel: rel, tbl: tbl, lo: lo, hi: min(lo+walkChunkRows, n)})
		}
	}
	return chunks
}

// SpecializeParallel is Specialize with row evaluation spread over
// workers goroutines (0 = GOMAXPROCS). Expressions are immutable and
// the structure's operations must be pure, so evaluation parallelizes
// trivially; f is called from multiple goroutines and must be safe for
// concurrent use (or use LiveStream, which hands chunks back in order),
// and the tuple it gets is lent for the call (a callback that keeps it
// keeps t.Clone()). With one worker rows stream in order on the
// caller's goroutine: that is Specialize. The pass is LiveStream's
// chunk pipeline with f in the per-row test, which keeps no row: the
// MVCC horizon is pinned once at entry (a View's own pinned horizon is
// used as-is), so the pass is lock-free and consistent against
// concurrent writers. ctx is checked at chunk boundaries; on
// cancellation the pass stops early — chunks already started still
// complete, before it returns — and ctx.Err() is returned.
// This is a beyond-the-paper extension: provenance usage is the
// measurement of Figures 7c/8c, and valuation is embarrassingly
// parallel, unlike the re-execution baseline.
func SpecializeParallel[T any](ctx context.Context, e Reader, s upstruct.Structure[T], env upstruct.Env[T], workers int, f func(rel string, t db.Tuple, v T)) error {
	_, err := liveStream(ctx, e, workers, e.Schema().Names(), func(sc *streamScratch) func(string, *row, *version) bool {
		// A row's base holds the previous base twice for each time it was
		// modified onto itself: the memo makes a row cost its DAG, not the
		// tree's 2^k nodes. Cleared a row at a time, it stays row-sized,
		// and a map a large row grew is dropped, not cleared, so that it
		// does not tax every later clear.
		memo := map[*core.Expr]T{}
		return func(rel string, r *row, ver *version) bool {
			if len(memo) > 256 {
				memo = map[*core.Expr]T{}
			} else {
				clear(memo)
			}
			sc.tup = sc.tbl.tuple(r, sc.tup)
			f(rel, sc.tup, upstruct.EvalMemo(ver.base, s, env, memo))
			return false
		}
	}, func(Chunk[struct{}], LiveRows) {}, func([]Chunk[struct{}], bool) error { return nil })
	if err == nil && ctx != nil {
		err = ctx.Err() // cancelled in the last chunks, after every one was emitted
	}
	return err
}

// Chunk is one piece of a LiveStream pass: up to walkChunkRows rows of
// relation Rel (Rows counts them, live or not), encoded into Slot, one
// of the window's slots, which the stream owns and hands no other chunk
// until emit has returned for this one.
type Chunk[S any] struct {
	Rel  string
	Rows int
	Slot *S
}

// streamWindowPerWorker sets the stream's lookahead in chunks per worker.
// BenchmarkWhatIf's ns/op does not tell 1×, 2× and 4× apart; over the
// wire (bench/e2e whatif_read, 2 vCPU Xeon, 20 alternating pairs) 2×
// reads read_p50_ms 33.0 ms to 1×'s 35.7, lower in 15 of 20, for 28.7 kB
// allocated per what-if to 25.0.
const streamWindowPerWorker = 2

// streamScratch is one stream worker's valuation kernel, its chunk's
// live rows and table, and the tuple they are lent in. scratches
// recycles it, so a request's memo pages are cleared, not allocated; the
// rows are cleared on put.
type streamScratch struct {
	k    *upstruct.Kernel
	rows []*row
	tbl  *table
	tup  db.Tuple
}

// scratches keeps one scratch per CPU, a default pass's workers (by
// NumCPU: GOMAXPROCS can be lowered for a while, as AllocsPerRun does);
// a kept scratch is a kernel's memo pages and 1 024 row pointers.
var scratches = db.FreeList[*streamScratch]{Max: runtime.NumCPU(), New: func() *streamScratch {
	return &streamScratch{k: upstruct.NewKernel(nil), rows: make([]*row, 0, walkChunkRows)}
}}

func (sc *streamScratch) put() {
	clear(sc.rows[:cap(sc.rows)])
	sc.tbl = nil
	scratches.Put(sc)
}

// EmptyScratch empties every free list of the engine — the stream
// workers' scratch, the chunk descriptors and the tuple buffers — so the
// next pass makes every buffer it uses: a test of cold allocation.
func EmptyScratch() {
	scratches.Empty()
	chunkBufs.Empty()
	tupleBufs.Empty()
}

// LiveRows is one chunk's live rows, as LiveStream's encode gets them:
// Each lends their tuples in insertion order, each for its call only.
type LiveRows struct{ sc *streamScratch }

// Each calls f with each live tuple in turn.
func (l LiveRows) Each(f func(t db.Tuple)) {
	for _, r := range l.sc.rows {
		l.sc.tup = l.sc.tbl.tuple(r, l.sc.tup)
		f(l.sc.tup)
	}
}

// LiveStream evaluates the Boolean valuation val over every row r sees
// and streams the live tuples chunk by chunk, relations in the order
// rels lists them, rows in insertion order. encode runs on the worker
// that evaluated a chunk and renders its live rows (valid during the
// call) into the chunk's slot; emit runs on the caller's goroutine and
// gets the chunks in order, the first window (or all, if fewer) at once,
// then each as soon as it is next, more telling whether chunks follow.
// Workers, each on a recycled upstruct.Kernel, run at most a window of
// streamWindowPerWorker × workers chunks ahead of emit. Horizon pinning,
// workers and ctx behave as in SpecializeParallel; the pass ends at
// emit's first error or ctx.Err(), once every worker has exited, and
// hands back the window's slots so the caller can recycle what they
// hold.
func LiveStream[S any](ctx context.Context, r Reader, val *upstruct.Valuation, workers int, rels []string, encode func(c Chunk[S], live LiveRows), emit func(ready []Chunk[S], more bool) error) ([]S, error) {
	return liveStream(ctx, r, workers, rels, func(sc *streamScratch) func(string, *row, *version) bool {
		sc.k.Reset(val)
		return func(_ string, _ *row, ver *version) bool { return sc.k.Eval(ver.base) }
	}, encode, emit)
}

// liveStream is the one chunk pipeline of the valuation passes: a
// chunk's live rows are the visible rows keep returns true for, and
// newKeep builds one worker's keep on its scratch (sc.tbl is the
// chunk's table while keep runs). Chunk i+window is dispatched once
// chunk i is emitted, so slot i % window is free; idle workers wait on
// the work queue, which the caller closes when it returns. A slow chunk
// holds emit, so once a window of later chunks is done the other
// workers idle until it is.
func liveStream[S any](ctx context.Context, r Reader, workers int, rels []string, newKeep func(*streamScratch) func(rel string, r *row, ver *version) bool, encode func(Chunk[S], LiveRows), emit func([]Chunk[S], bool) error) ([]S, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	window := streamWindowPerWorker * workers
	slots := make([]S, window)
	p := r.view()
	chunks := p.chunks(rels)
	defer putChunkBuf(chunks)
	n := len(chunks)
	at := func(i int) Chunk[S] {
		return Chunk[S]{Rel: chunks[i].rel, Rows: chunks[i].hi - chunks[i].lo, Slot: &slots[i%window]}
	}
	ctx, cancel := context.WithCancel(ctx)
	work, ready := make(chan int, window), make([]chan struct{}, window) // a window at most is dispatched and not emitted
	for s := range ready {
		ready[s] = make(chan struct{}, 1)
	}
	var wg sync.WaitGroup
	defer wg.Wait() // runs last: cancel, close the queue, wait for the workers
	defer close(work)
	defer cancel()
	// run evaluates and encodes chunk i and marks its slot ready, unless
	// the pass is over: the caller then watches ctx, not the slot.
	run := func(sc *streamScratch, keep func(string, *row, *version) bool, i int) {
		if ctx.Err() != nil {
			return
		}
		c := chunks[i]
		sc.rows, sc.tbl = sc.rows[:0], c.tbl
		c.tbl.cols.eachRows(c.lo, c.hi, func(rows []row) {
			for i := range rows {
				if ver := c.tbl.at(&rows[i], p.k); ver != nil && keep(c.rel, &rows[i], ver) {
					sc.rows = append(sc.rows, &rows[i])
				}
			}
		})
		encode(at(i), LiveRows{sc})
		ready[i%window] <- struct{}{}
	}
	dispatch := func(i int) { work <- i }
	if workers = min(workers, n); workers <= 1 {
		sc := scratches.Get()
		defer sc.put()
		keep := newKeep(sc)
		dispatch = func(i int) { run(sc, keep, i) }
	} else {
		wg.Add(workers)
		for range workers {
			go func() {
				defer wg.Done()
				sc := scratches.Get()
				defer sc.put()
				keep := newKeep(sc)
				for i := range work {
					run(sc, keep, i)
				}
			}()
		}
	}

	batch := make([]Chunk[S], 0, min(window, n))
	for k, sent := 0, 0; ; {
		for ; sent < min(k+window, n); sent++ {
			dispatch(sent)
		}
		hi := min(max(k+1, window), n) // the first window at once, then chunk by chunk
		batch = batch[:0]
		for j := k; j < hi; j++ {
			select {
			case <-ready[j%window]:
			case <-ctx.Done():
				return slots, ctx.Err()
			}
			batch = append(batch, at(j))
		}
		if err := emit(batch, hi < n); err != nil {
			return slots, err
		}
		if k = hi; k == n {
			return slots, nil
		}
		if err := ctx.Err(); err != nil {
			return slots, err
		}
	}
}

// BoolRestrictParallel materializes the database selected by a Boolean
// valuation using parallel evaluation: the LiveStream pass under the
// generic evaluator (env is opaque, so there is nothing to resolve or
// memoise) in schema order, each chunk's live tuples copied into its
// slot and inserted as it is emitted, so the result's insertion order
// is the same for any worker count (BoolRestrict is this with one),
// view or wrapper. env must be safe for concurrent use. On
// cancellation, (nil, ctx.Err()) is returned.
func BoolRestrictParallel(ctx context.Context, e Reader, env upstruct.Env[bool], workers int) (*db.Database, error) {
	out := db.NewDatabase(e.Schema())
	keep := func(_ string, _ *row, ver *version) bool { return upstruct.Eval(ver.base, upstruct.Bool, env) }
	_, err := liveStream(ctx, e, workers, e.Schema().Names(), func(*streamScratch) func(string, *row, *version) bool { return keep },
		func(c Chunk[[]db.Tuple], live LiveRows) {
			*c.Slot = (*c.Slot)[:0]
			live.Each(func(t db.Tuple) { *c.Slot = append(*c.Slot, t.Clone()) }) // the database keeps it
		},
		func(ready []Chunk[[]db.Tuple], _ bool) error {
			for _, c := range ready {
				for _, t := range *c.Slot {
					// Tuples stored by the engine conform by construction.
					_ = out.InsertTuple(c.Rel, t)
				}
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}
