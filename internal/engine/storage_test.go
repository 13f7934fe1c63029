package engine

// White-box tests of the write path's storage and scratch: the chunked
// word, record and version columns, the writer-owned buffers and the
// borrowed commit-event rows.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/upstruct"
)

// TestVersionSizePinned: a version is its frozen annotation, a 32-bit
// prev reference and a 32-bit epoch, 16 bytes, and a row — no tuple,
// its values are the columns', a 32-bit head reference, its 32-bit
// position and the writer's 32-bit touched-list entry — is 24 (4 of them
// padding), so a fresh row and its first version take 40 bytes, an
// element of the record column and one of the version column, and no
// allocation of their own; the row map spends a 4-byte slot on it. A
// word here is a word per version or per row forever.
func TestVersionSizePinned(t *testing.T) {
	if got := unsafe.Sizeof(version{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(version{}) = %d, want 16", got)
	}
	if got := unsafe.Sizeof(row{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(row{}) = %d, want 24", got)
	}
	if got := unsafe.Sizeof(rowSlots{}.slots[0]); got != 4 {
		t.Fatalf("a row map slot takes %d bytes, want 4", got)
	}
}

// TestWordColChunkLayout: positions map to consecutive (chunk, offset)
// pairs with the documented sizes — 16, 16, 32, … colChunk/2, then
// colChunk — words read back from where they were appended, and a
// one-row column holds one minimum chunk, not a full one.
func TestWordColChunkLayout(t *testing.T) {
	var c column[uint64]
	c.appendAt(0, 42)
	if dir := c.chunks(); len(dir) != 1 || len(dir[0]) != colChunkMin {
		t.Fatalf("a one-row column holds %d chunks, the first of %d words; want 1 of %d", len(dir), len(dir[0]), colChunkMin)
	}
	wantCI, wantOff := 0, 0
	for n := 0; n < 3*colChunk+2; n++ {
		if ci, off := chunkOf(n, colChunkMinBits); ci != wantCI || off != wantOff {
			t.Fatalf("chunkOf(%d) = (%d, %d), want (%d, %d)", n, ci, off, wantCI, wantOff)
		}
		c.appendAt(n, uint64(n)*7)
		if wantOff++; wantOff == len(c.chunks()[wantCI]) {
			wantCI, wantOff = wantCI+1, 0
		}
	}
	sizes := []int{}
	for _, words := range c.chunks() {
		sizes = append(sizes, len(words))
	}
	want := []int{colChunkMin}
	for s := colChunkMin; s < colChunk; s *= 2 {
		want = append(want, s)
	}
	want = append(want, colChunk, colChunk, colChunk)
	if !slices.Equal(sizes, want) {
		t.Fatalf("chunk sizes %v, want %v", sizes, want)
	}
	for n := 0; n < 3*colChunk+2; n++ {
		if got := c.at(n); got != uint64(n)*7 {
			t.Fatalf("at(%d) = %d, want %d", n, got, n*7)
		}
	}
}

// TestEachRowsRanges: eachRows visits exactly the positions lo … hi-1,
// in order, for ranges that start, end on and straddle every chunk
// boundary of the layout, and none for an empty range.
func TestEachRowsRanges(t *testing.T) {
	const n = 2*colChunk + 5
	var c colStore
	for p := 0; p < n; p++ {
		c.rows.slotAt(p).pos = uint32(p)
	}
	c.n.Store(n)
	var edges []int
	for b := colChunkMin; b <= 2*colChunk; b *= 2 {
		edges = append(edges, b)
	}
	for _, b := range edges {
		for _, lo := range []int{0, b - 1, b, b + 1} {
			for _, hi := range []int{lo, b - 1, b, b + 1, n} {
				if hi < lo {
					continue
				}
				next := lo
				c.eachRows(lo, hi, func(rows []row) {
					for i := range rows {
						if int(rows[i].pos) != next {
							t.Fatalf("[%d, %d): visited position %d, want %d", lo, hi, rows[i].pos, next)
						}
						next++
					}
				})
				if next != hi {
					t.Fatalf("[%d, %d): stopped at %d", lo, hi, next)
				}
			}
		}
	}
}

func kv(k, v int64) db.Tuple { return db.Tuple{db.I(k), db.I(v)} }

func kvEngine(t *testing.T, rows int, opts ...Option) *Engine {
	t.Helper()
	initial := db.NewDatabase(seqTestSchema(t))
	for i := 0; i < rows; i++ {
		if err := initial.InsertTuple("R", kv(int64(i), int64(i%7))); err != nil {
			t.Fatal(err)
		}
	}
	return New(ModeNormalForm, initial, opts...)
}

// TestKindMismatchedConstant: a constant of another kind than its
// column may share the payload word of a stored value, and the column
// prefilter compares words. No such update reaches storage: whichever
// access path it would have taken — the prefilter, a posting list, the
// fully pinned point lookup — and whether it selects, inserts or sets
// the value, it answers ErrBadTuple, plans no scan and changes no row.
func TestKindMismatchedConstant(t *testing.T) {
	floatSeven := db.F(math.Float64frombits(7)) // the word of I(7), another kind
	for _, indexed := range []bool{false, true} {
		t.Run(fmt.Sprintf("indexed=%v", indexed), func(t *testing.T) {
			e := kvEngine(t, 3*colChunkMin)
			if indexed {
				if err := e.BuildIndex("R", "K"); err != nil {
					t.Fatal(err)
				}
			}
			odd := db.Tuple{floatSeven, db.I(0)}
			before, rows := e.PlannerStats(), e.NumRows()
			for label, u := range map[string]db.Update{
				"unpinned delete": db.Delete("R", db.Pattern{db.Const(floatSeven), db.AnyVar("v")}),
				"pinned delete":   db.Delete("R", db.ConstPattern(odd)),
				"insert":          db.Insert("R", odd),
				"modify to":       db.Modify("R", db.ConstPattern(kv(7, 0)), []db.SetClause{db.SetTo(floatSeven), db.Keep()}),
				"modify where":    db.Modify("R", db.Pattern{db.Const(floatSeven), db.AnyVar("v")}, []db.SetClause{db.Keep(), db.SetTo(db.I(1))}),
			} {
				tx := db.Transaction{Label: label, Updates: []db.Update{u}}
				if err := e.ApplyTransaction(&tx); !errors.Is(err, ErrBadTuple) {
					t.Errorf("%s: %v, want ErrBadTuple", label, err)
				}
			}
			ann := e.Annotation("R", kv(7, 0))
			if ann == nil || !upstruct.Eval(ann, upstruct.Bool, func(core.Annot) bool { return true }) {
				t.Error("a float constant touched the int row sharing its payload word")
			}
			if e.Annotation("R", odd) != nil || e.NumRows() != rows {
				t.Error("a float was stored in the int column")
			}
			if after := e.PlannerStats(); after != before {
				t.Errorf("a refused update planned a scan: %+v, was %+v", after, before)
			}
		})
	}
}

// TestScanBufReleaseIsResultSized: releasing a scan buffer clears the
// slots the result used, not the buffer's capacity — a buffer grown by
// one huge selection must not cost every later update a memclr of that
// size — and the free-list still never retains a row.
func TestScanBufReleaseIsResultSized(t *testing.T) {
	const rows = 20000
	e := kvEngine(t, rows)
	tbl := e.tables["R"]
	all := db.Delete("R", db.Pattern{db.VarNotEq("k", db.I(-1)), db.AnyVar("v")})
	e.mu.Lock()
	defer e.mu.Unlock()
	huge := e.scan(tbl, all)
	if len(huge) != rows {
		t.Fatalf("≠-only selection matched %d rows, want %d", len(huge), rows)
	}
	e.putScanBuf(huge)
	pooled := e.scanBufs[len(e.scanBufs)-1]
	pooled = pooled[:cap(pooled)]
	for i, r := range pooled {
		if r != nil {
			t.Fatalf("free-list slot %d still references a row", i)
		}
	}
	// Mark a slot far past any small result: a release that walks the
	// capacity would wipe it.
	mark := tbl.cols.row(0)
	pooled[len(pooled)-1] = mark
	one := e.scan(tbl, db.Delete("R", db.Pattern{db.Const(db.I(5)), db.AnyVar("v")}))
	if len(one) != 1 || cap(one) != cap(pooled) {
		t.Fatalf("point scan returned %d rows in a buffer of cap %d, want 1 row in the pooled cap %d", len(one), cap(one), cap(pooled))
	}
	e.putScanBuf(one)
	if pooled[0] != nil {
		t.Fatal("release left the result's own slot referencing a row")
	}
	if pooled[len(pooled)-1] != mark {
		t.Fatal("release cleared the buffer's whole capacity, not the result's length")
	}
	pooled[len(pooled)-1] = nil
}

// TestPinnedScanAllocFree: a selection pinning every attribute is
// answered from writer-owned scratch — the probe tuple and the result
// buffer — so asking for a tuple that is not there, or one that is,
// allocates nothing once both are warm.
func TestPinnedScanAllocFree(t *testing.T) {
	e := kvEngine(t, 100)
	tbl := e.tables["R"]
	e.mu.Lock()
	defer e.mu.Unlock()
	for name, u := range map[string]db.Update{
		"absent":  db.Delete("R", db.ConstPattern(kv(1000, 0))),
		"present": db.Delete("R", db.ConstPattern(kv(5, 5))),
	} {
		want := 0
		if name == "present" {
			want = 1
		}
		scan := func() {
			rows := e.scan(tbl, u)
			if len(rows) != want {
				t.Fatalf("%s: scan returned %d rows, want %d", name, len(rows), want)
			}
			e.putScanBuf(rows)
		}
		scan()
		if avg := testing.AllocsPerRun(200, scan); avg != 0 {
			t.Errorf("%s: a pinned scan allocates %v times, want 0", name, avg)
		}
	}
}

// TestModifyScratchBounded: the grouping scratch is reused across small
// modifications, references no tuple or expression between updates, and
// a 100 000-source modification — into as many targets, then into one —
// leaves less than 1 kB allocated behind.
func TestModifyScratchBounded(t *testing.T) {
	const rows = 100000
	e := kvEngine(t, rows)
	mod := &e.mod
	retained := func() (bytes int) {
		s := mod
		if s.n != 0 || len(s.groups) != 0 {
			t.Fatalf("scratch holds %d groups, %d map entries between updates", s.n, len(s.groups))
		}
		bytes = cap(s.order) * 8
		for _, g := range s.order {
			if g.target != nil || g.collide != nil || len(g.raw)+len(g.contrib) != 0 {
				t.Fatalf("spare group still references its last update: %+v", g)
			}
			for _, x := range slices.Concat(g.raw[:cap(g.raw)], g.contrib[:cap(g.contrib)]) {
				if x != nil {
					t.Fatal("spare contribution slot still references an expression")
				}
			}
			bytes += int(unsafe.Sizeof(*g)) + 8*(cap(g.raw)+cap(g.contrib))
		}
		return bytes
	}
	modify := func(label string, sel db.Pattern, set []db.SetClause) {
		tx := db.Transaction{Label: label, Updates: []db.Update{db.Modify("R", sel, set)}}
		if err := e.ApplyTransaction(&tx); err != nil {
			t.Fatal(err)
		}
	}
	everyRow := db.Pattern{db.VarNotEq("k", db.I(-1)), db.AnyVar("v")}
	// 100 000 sources into 100 000 targets, then all of them into one.
	modify("spread", everyRow, []db.SetClause{db.Keep(), db.SetTo(db.I(100))})
	if mod.groups != nil || retained() != 0 {
		t.Fatalf("a %d-group modification left map %v and %d bytes of groups behind", rows, mod.groups != nil, retained())
	}
	modify("merge", everyRow, []db.SetClause{db.SetTo(db.I(0)), db.SetTo(db.I(0))})
	if got := retained(); got >= 1000 {
		t.Fatalf("a %d-source modification left %d bytes of scratch behind, want < 1000", rows, got)
	}
	// Small modifications reuse what the previous one allocated.
	modify("warm", db.Pattern{db.Const(db.I(0)), db.Const(db.I(0))}, []db.SetClause{db.Keep(), db.SetTo(db.I(1))})
	group, order := mod.order[0], &mod.order[0]
	modify("again", db.Pattern{db.Const(db.I(0)), db.Const(db.I(1))}, []db.SetClause{db.Keep(), db.SetTo(db.I(2))})
	if mod.order[0] != group || &mod.order[0] != order {
		t.Fatal("a one-row modification did not reuse the scratch of the one before it")
	}
	retained()
}

// TestStagedTargetsNeverAliasScratch: a modification builds each source
// in e.source and stages its target in e.staged, and nothing it keeps —
// a group's target, whose words a fresh row takes — may share those
// arrays. (a) Sources collapsing onto a stored tuple add no row and leave
// that row at its position with its words. (b) Fresh targets, several in
// one transaction and then across transactions, keep their values while
// later targets are staged; no group target shares the scratch, and a
// view pinned in between reads the same tuples, while a reader goroutine
// walks the live rows' words.
func TestStagedTargetsNeverAliasScratch(t *testing.T) {
	overlaps := func(a, b db.Tuple) bool {
		pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
		size := unsafe.Sizeof(db.Value{})
		return cap(a) > 0 && cap(b) > 0 && pa < pb+uintptr(cap(b))*size && pb < pa+uintptr(cap(a))*size
	}
	byV := func(v int64) db.Pattern { return db.Pattern{db.AnyVar("k"), db.Const(db.I(v))} }
	setV := func(v int64) []db.SetClause { return []db.SetClause{db.Keep(), db.SetTo(db.I(v))} }
	for _, mode := range []Mode{ModeNaive, ModeNormalForm} {
		for _, live := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/live=%v", mode, live), func(t *testing.T) {
				initial := db.NewDatabase(seqTestSchema(t))
				for k := range int64(12) {
					if err := initial.InsertTuple("R", kv(k, k%3)); err != nil {
						t.Fatal(err)
					}
				}
				e := New(mode, initial, WithLiveMatching(live))
				tbl := e.tables["R"]
				apply := func(label string, us ...db.Update) {
					t.Helper()
					tx := db.Transaction{Label: label, Updates: us}
					if err := e.ApplyTransaction(&tx); err != nil {
						t.Fatal(err)
					}
				}
				noAlias := func() {
					t.Helper()
					if cap(e.staged) == 0 {
						t.Fatal("no target was staged")
					}
					if overlaps(e.mod.vals, e.staged) || overlaps(e.mod.vals, e.source) {
						t.Fatal("the groups' targets share the staging scratch's array")
					}
				}
				tuple := func(r *row) db.Tuple { return tbl.tuple(r, nil) }

				// (a) (0,0), (3,0), (6,0), (9,0) collapse onto the stored (0,0), twice.
				into := kv(0, 0)
				stored := tbl.rows.get(into.Fingerprint(), into)
				first, n := stored.pos, e.NumRows()
				for _, label := range []string{"a1", "a2"} {
					apply(label, db.Modify("R", byV(0), []db.SetClause{db.SetTo(db.I(0)), db.Keep()}))
					if got := e.NumRows(); got != n {
						t.Fatalf("%s: a modification onto a stored tuple made %d rows of %d", label, got, n)
					}
					if r := tbl.rows.get(into.Fingerprint(), into); r != stored || r.pos != first || !tuple(r).Equal(into) {
						t.Fatalf("%s: the stored target's row, position or words moved", label)
					}
					noAlias()
				}

				// (b) Fresh targets: eight in one transaction, then new ones per transaction.
				apply("b1", db.Modify("R", byV(1), setV(50)), db.Modify("R", byV(2), setV(60)))
				noAlias()
				pinned := e.At(e.Horizon()).(*view)
				var want []db.Tuple
				for _, r := range rowsOf(pinned.rows("R")) {
					want = append(want, tuple(r))
				}
				rowsBefore := rowsOf(tbl, tbl.cols.len())
				// Under -race, a reader beside the writer races with any
				// row whose words are written after it is published.
				stop, seen := make(chan struct{}), uint64(0)
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						var buf db.Tuple
						for _, r := range rowsOf(e.At(e.Horizon()).(*view).rows("R")) {
							buf = tbl.tuple(r, buf)
							seen += buf.Fingerprint()
						}
					}
				}()
				defer func() { close(stop); wg.Wait() }()
				for i, v := range []int64{50, 60, 70, 80} {
					apply(fmt.Sprintf("b%d", i+2), db.Modify("R", byV(v), setV(v+20)))
					noAlias()
					for j, r := range rowsBefore {
						if got := tuple(r); !got.Equal(want[j]) {
							t.Fatalf("after staging %d more targets row %d reads %v, want %v", i+1, j, got, want[j])
						}
					}
					got := rowsOf(pinned.rows("R"))
					if len(got) != len(want) {
						t.Fatalf("the pinned view holds %d rows, held %d", len(got), len(want))
					}
					for j, r := range got {
						if tu := tuple(r); !tu.Equal(want[j]) {
							t.Fatalf("the pinned view's row %d reads %v, read %v", j, tu, want[j])
						}
					}
				}
				if got, wantN := e.NumRows(), len(want)+4*4; got != wantN {
					t.Fatalf("%d rows after four modifications of four fresh targets each, want %d", got, wantN)
				}
			})
		}
	}
}

// TestModGroupsUnderCollision: two distinct targets forced to one
// fingerprint open two groups on one collide chain, each found as its own,
// and reset leaves neither reachable.
func TestModGroupsUnderCollision(t *testing.T) {
	var s modScratch
	const fp = 42 // neither target's real fingerprint: the collision is forced
	a, b := kv(1, 2), kv(2, 1)
	ga := s.group(a, fp, nil)
	if s.find(b, fp) != nil {
		t.Fatal("find matched a distinct target by fingerprint alone")
	}
	gb := s.group(b, fp, nil)
	if ga == gb || s.n != 2 || len(s.groups) != 1 || gb.collide != ga {
		t.Fatalf("two colliding targets: groups %p %p, n=%d, %d map entries", ga, gb, s.n, len(s.groups))
	}
	if s.find(a, fp) != ga || s.find(b, fp) != gb {
		t.Fatal("a colliding target found another target's group")
	}
	if s.find(kv(3, 3), fp) != nil {
		t.Fatal("a third target on the chain found a group")
	}
	s.reset()
	if s.n != 0 || len(s.groups) != 0 || s.find(a, fp) != nil || s.find(b, fp) != nil {
		t.Fatalf("reset left groups reachable: n=%d, %d map entries", s.n, len(s.groups))
	}
	for _, g := range s.order {
		if g.target != nil || g.row != nil || g.collide != nil {
			t.Fatalf("reset left a spare group referencing %+v", g)
		}
	}
}

// TestCommitHookRowsBorrowed: ev.Rows is valid during the hook call
// only. A hook that keeps the slice without copying reads wiped entries
// once the call returned (and would read the next epoch's rows after
// that); a hook that copies keeps the epoch's refs, and RowTuple reads
// their rows' values after the call.
func TestCommitHookRowsBorrowed(t *testing.T) {
	t.Run("shards=1", func(t *testing.T) {
		initial := db.NewDatabase(seqTestSchema(t))
		d := Open(ModeNormalForm, initial)
		var kept, copied [][]RowRef
		d.SetCommitHook(func(ev CommitEvent) {
			kept = append(kept, ev.Rows)
			copied = append(copied, slices.Clone(ev.Rows))
		})
		for i := int64(0); i < 3; i++ {
			tx := db.Transaction{Label: fmt.Sprintf("t%d", i), Updates: []db.Update{
				db.Insert("R", kv(2*i, i)), db.Insert("R", kv(2*i+1, i)),
			}}
			if err := d.ApplyTransaction(&tx); err != nil {
				t.Fatal(err)
			}
		}
		if len(copied) != 3 {
			t.Fatalf("%d events for 3 transactions", len(copied))
		}
		for i := range copied {
			if len(copied[i]) != 2 || len(kept[i]) != 2 {
				t.Fatalf("event %d: %d rows copied, %d kept, want 2 and 2", i, len(copied[i]), len(kept[i]))
			}
			for j, ref := range copied[i] {
				if tu, ok := RowTuple(d, ref, nil); !ok || ref.Rel != "R" || tu[1].Int() != int64(i) {
					t.Fatalf("event %d: the copy holds %v, a row holding %v", i, ref, tu)
				}
				if k := kept[i][j]; k != (RowRef{}) {
					t.Fatalf("event %d: the uncopied slice still reads %v after the call", i, k)
				}
			}
		}
	})
}

// TestReadersAcrossChunkGrowth (run under -race): lock-free readers of
// the columns — NumRows and SpecializeParallel trimming the rows with no
// version at their horizon, EachRow and LiveStream walking the record column,
// point lookups going from a row map slot to a record chunk the writer
// may just have allocated, views pinned to the newest and to older
// epochs walking the initial row's prev references back through the
// version column — and SelectEach run across a writer whose inserts
// cross chunk boundaries and directory growth of both columns. Every
// pass must see one committed epoch: whole transactions, never a torn
// one. Each transaction also deletes and re-inserts the initial row and
// modifies the previous transaction's first row onto itself twice: a row
// written twice in an epoch gets exactly one new version there. A pinned
// view must read the initial row's annotation alike before and after the
// writer moved on, and at the end. (A row modified onto itself in every
// epoch would double its tree each time, and SpecializeParallel's
// tree-walking Eval with it.)
func TestReadersAcrossChunkGrowth(t *testing.T) {
	const perTxn, txns = 64, 3 * colChunk / 64
	e := kvEngine(t, 1)
	hot := kv(0, 0)
	stop := make(chan struct{})
	var passes atomic.Int64
	var readMu sync.Mutex
	read := map[uint64]*core.Expr{} // the hot row's annotation, as pinned views read it
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < txns; i++ {
			tx := db.Transaction{Label: fmt.Sprintf("t%d", i), Updates: []db.Update{db.Delete("R", db.Pattern{db.Const(db.I(0)), db.Const(db.I(0))}), db.Insert("R", hot)}}
			for j := 0; j < perTxn; j++ {
				tx.Updates = append(tx.Updates, db.Insert("R", kv(int64(1+i*perTxn+j), 1)))
			}
			if i > 0 {
				self := db.Modify("R", db.Pattern{db.Const(db.I(int64(1 + (i-1)*perTxn))), db.AnyVar("v")}, []db.SetClause{db.Keep(), db.SetTo(db.I(1))})
				tx.Updates = append(tx.Updates, self, self)
			}
			if err := e.ApplyTransaction(&tx); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	whole := func(what string, n int) {
		if n < 1 || (n-1)%perTxn != 0 {
			t.Errorf("%s saw %d rows: not the initial row plus whole transactions", what, n)
		}
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inserted := db.Pattern{db.AnyVar("k"), db.Const(db.I(1))}
			for last := 0; ; {
				select {
				case <-stop:
					return
				default:
				}
				n := e.NumRows()
				whole("NumRows", n)
				if n < last {
					t.Errorf("NumRows went from %d to %d", last, n)
				}
				last = n
				view := e.At(e.Horizon())
				older := e.At(view.AsOf() / 2)
				pinned := [2]*core.Expr{view.Annotation("R", hot), older.Annotation("R", hot)}
				// The newest key n covers is found, holding its own tuple; the
				// key past it is absent or, committed since, holds its own.
				for k := n - 1; k <= n; k++ {
					want := kv(int64(k), int64(min(k, 1)))
					found, pinned := e.Annotation("R", want) != nil, view.Annotation("R", want) != nil
					if k == n-1 && !(found && pinned) {
						t.Errorf("key %d of the %d rows NumRows read: found %v, at the pinned view %v", k, n, found, pinned)
					}
					r := e.tables["R"].rows.get(want.Fingerprint(), want)
					if r == nil && (found || pinned) {
						t.Errorf("key %d: annotated, then missing from the row map", k)
					}
					if r != nil {
						if got, _ := RowTuple(e, RowRef{Rel: "R", Pos: r.pos}, nil); !got.Equal(want) {
							t.Errorf("the row map found %v for %v", got, want)
						}
					}
				}
				var mu sync.Mutex
				seen := 0
				err := SpecializeParallel[bool](context.Background(), view, upstruct.Bool,
					func(core.Annot) bool { return true }, 2,
					func(string, db.Tuple, bool) { mu.Lock(); seen++; mu.Unlock() })
				if err != nil || seen != view.NumRows() {
					t.Errorf("SpecializeParallel visited %d rows of a view holding %d (err %v)", seen, view.NumRows(), err)
				}
				matched := 0
				if err := e.SelectEach("R", inserted, func(db.Tuple) { matched++ }); err != nil {
					t.Error(err)
				}
				whole("SelectEach", matched+1)
				each := 0
				e.EachRow("R", func(db.Tuple, *core.Expr) { each++ })
				whole("EachRow", each)
				streamed, live := 0, 0
				_, err = LiveStream(context.Background(), e, upstruct.Dead(), 2, []string{"R"},
					func(c Chunk[int], rows LiveRows) { *c.Slot = 0; rows.Each(func(db.Tuple) { *c.Slot++ }) },
					func(ready []Chunk[int], _ bool) error {
						for _, c := range ready {
							streamed, live = streamed+c.Rows, live+*c.Slot
						}
						return nil
					})
				whole("LiveStream", streamed)
				if err != nil || live != streamed {
					t.Errorf("LiveStream found %d of %d rows live under the all-true valuation (err %v)", live, streamed, err)
				}
				for i, v := range []View{view, older} {
					if got := v.Annotation("R", hot); got == nil || got != pinned[i] {
						t.Errorf("the view at epoch %d read the hot row as %v, then as %v", v.AsOf(), pinned[i], got)
					}
					readMu.Lock()
					read[v.AsOf()] = pinned[i]
					readMu.Unlock()
				}
				passes.Add(1)
			}
		}()
	}
	wg.Wait()
	t.Logf("%d reader passes beside %d transactions", passes.Load(), txns)
	if got, want := e.NumRows(), 1+perTxn*txns; got != want {
		t.Fatalf("%d rows after the writer finished, want %d", got, want)
	}
	for k, ann := range read {
		if got := e.At(k).Annotation("R", hot); got != ann {
			t.Errorf("epoch %d: the hot row reads %v, a view pinned there read %v", k, got, ann)
		}
	}
	// One version a row per epoch that wrote it: every chain runs through
	// strictly decreasing epochs, the initial row's through all of them.
	tbl := e.tables["R"]
	for _, r := range rowsOf(tbl, tbl.cols.len()) {
		var epochs []uint32
		for ref := r.head.Load(); ref != 0; ref = tbl.vers.ref(int(ref - 1)).prev {
			if v := tbl.vers.ref(int(ref - 1)); len(epochs) == 0 || v.epoch < epochs[len(epochs)-1] {
				epochs = append(epochs, v.epoch)
			} else {
				t.Fatalf("row %v: a version of epoch %d below one of epoch %d", tbl.tuple(r, nil), v.epoch, epochs[len(epochs)-1])
			}
		}
		if r.pos == 0 && len(epochs) != txns+1 {
			t.Errorf("the initial row has versions of epochs %v, want %d down to 0", epochs, txns)
		}
	}
	if got, want := e.MVCCStats().Versions, uint64(1+(perTxn+1)*txns+txns-1); got != want {
		t.Errorf("%d versions, want %d: one a row per epoch that wrote it", got, want)
	}
}
