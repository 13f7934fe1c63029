package engine

// White-box tests of the write path's storage and scratch: the chunked
// word columns, the one-record version, the writer-owned buffers and
// the borrowed commit-event rows.

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

// TestVersionSizePinned: a version is prev + born + the embedded normal
// form + live in one 64-byte size class, and a row is another, so a
// fresh row and its first version fill one 128-byte allocation. A word
// here is a word per version forever.
func TestVersionSizePinned(t *testing.T) {
	if got := unsafe.Sizeof(version{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(version{}) = %d, want 64", got)
	}
	if got := unsafe.Sizeof(row{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(row{}) = %d, want 64", got)
	}
}

// TestWordColChunkLayout: positions map to consecutive (chunk, offset)
// pairs with the documented sizes — 16, 16, 32, … colChunk/2, then
// colChunk — words read back from where they were appended, and a
// one-row column holds one minimum chunk, not a full one.
func TestWordColChunkLayout(t *testing.T) {
	var c wordCol
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
	mark := tbl.list.snapshot()[0]
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

// TestCommitHookRowsBorrowed: ev.Rows is valid during the hook call
// only. A hook that keeps the slice without copying reads wiped entries
// once the call returned (and would read the next epoch's rows after
// that); a hook that copies keeps the epoch's rows. The shards=4 subtest
// opens the engine with the deprecated WithShards(4), which must change
// nothing.
func TestCommitHookRowsBorrowed(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			initial := db.NewDatabase(seqTestSchema(t))
			d := Open(ModeNormalForm, initial, WithShards(shards))
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
					if ref.Rel != "R" || ref.Tuple[1].Int() != int64(i) {
						t.Fatalf("event %d: the copy holds %v", i, ref)
					}
					if k := kept[i][j]; k.Rel != "" || k.Tuple != nil {
						t.Fatalf("event %d: the uncopied slice still reads %v after the call", i, k)
					}
				}
			}
		})
	}
}

// TestReadersAcrossChunkGrowth (run under -race): lock-free readers of
// the word columns — NumRows counting the sequence column,
// SpecializeParallel trimming by it — and SelectEach run across a writer
// whose inserts cross chunk boundaries and directory growth. Every pass
// must see one committed epoch: whole transactions, never a torn one.
func TestReadersAcrossChunkGrowth(t *testing.T) {
	const perTxn, txns = 64, 3 * colChunk / 64
	e := kvEngine(t, 1)
	stop := make(chan struct{})
	var passes atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < txns; i++ {
			tx := db.Transaction{Label: fmt.Sprintf("t%d", i)}
			for j := 0; j < perTxn; j++ {
				tx.Updates = append(tx.Updates, db.Insert("R", kv(int64(1+i*perTxn+j), 1)))
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
				passes.Add(1)
			}
		}()
	}
	wg.Wait()
	t.Logf("%d reader passes beside %d transactions", passes.Load(), txns)
	if got, want := e.NumRows(), 1+perTxn*txns; got != want {
		t.Fatalf("%d rows after the writer finished, want %d", got, want)
	}
}
