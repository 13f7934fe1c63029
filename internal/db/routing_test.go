package db

import (
	"testing"
)

func TestShardOf(t *testing.T) {
	tuples := make([]Tuple, 200)
	for i := range tuples {
		tuples[i] = Tuple{I(int64(i)), I(int64(i * 7))}
	}
	for _, tu := range tuples {
		if got := ShardOfTuple(tu, 1); got != 0 {
			t.Fatalf("ShardOfTuple(%v, 1) = %d", tu, got)
		}
		if got := ShardOfTuple(tu, 0); got != 0 {
			t.Fatalf("ShardOfTuple(%v, 0) = %d", tu, got)
		}
		for _, n := range []int{2, 3, 8, 16} {
			got := ShardOfTuple(tu, n)
			if got < 0 || got >= n {
				t.Fatalf("ShardOfTuple(%v, %d) = %d out of range", tu, n, got)
			}
			if again := ShardOfFingerprint(tu.Clone().Fingerprint(), n); again != got {
				t.Fatalf("ShardOfTuple(%v, %d) not deterministic: %d then %d", tu, n, got, again)
			}
		}
	}
	// The fold must actually spread tuples: with 200 tuples over 8 shards
	// an empty shard would indicate a broken mix.
	counts := make([]int, 8)
	for _, tu := range tuples {
		counts[ShardOfTuple(tu, 8)]++
	}
	for s, c := range counts {
		if c == 0 {
			t.Errorf("shard %d received no tuples out of %d", s, len(tuples))
		}
	}
}

func TestPinnedTuple(t *testing.T) {
	full := Pattern{Const(S("a")), Const(I(3))}
	tu, ok := full.PinnedTuple()
	if !ok || !tu.Equal(Tuple{S("a"), I(3)}) {
		t.Fatalf("fully constant pattern not pinned: %v, %v", tu, ok)
	}
	// AppendPinned builds the same tuple in the caller's buffer.
	buf := make(Tuple, 0, 4)
	if got, ok := full.AppendPinned(buf); !ok || !got.Equal(tu) || &got[0] != &buf[:1][0] {
		t.Fatalf("AppendPinned = %v, %v; want %v in the buffer handed in", got, ok, tu)
	}
	for name, p := range map[string]Pattern{
		"free variable": {Const(S("a")), AnyVar("x")},
		"disequality":   {Const(S("a")), VarNotEq("x", I(3))},
		"all free":      {AnyVar("x"), AnyVar("y")},
	} {
		p := p
		if _, ok := p.PinnedTuple(); ok {
			t.Errorf("%s: pattern %v reported pinned", name, p)
		}
		// An unpinned pattern is decided before anything is built: every
		// routed update asks, and most are unpinned.
		if avg := testing.AllocsPerRun(100, func() { _, _ = p.PinnedTuple() }); avg != 0 {
			t.Errorf("%s: PinnedTuple on an unpinned pattern allocates %v times, want 0", name, avg)
		}
	}
}

func TestRouteTuples(t *testing.T) {
	row := Tuple{S("a"), I(3)}
	sel := ConstPattern(row)

	tuples, ok := Insert("R", row).RouteTuples()
	if !ok || len(tuples) != 1 || !tuples[0].Equal(row) {
		t.Fatalf("insert routes to %v, %v", tuples, ok)
	}

	tuples, ok = Delete("R", sel).RouteTuples()
	if !ok || len(tuples) != 1 || !tuples[0].Equal(row) {
		t.Fatalf("pinned delete routes to %v, %v", tuples, ok)
	}
	if _, ok := Delete("R", Pattern{Const(S("a")), AnyVar("x")}).RouteTuples(); ok {
		t.Fatal("unpinned delete reported routable")
	}

	mod := Modify("R", sel, []SetClause{Keep(), SetTo(I(9))})
	tuples, ok = mod.RouteTuples()
	if !ok || len(tuples) != 2 {
		t.Fatalf("pinned modify routes to %v, %v", tuples, ok)
	}
	target := Tuple{S("a"), I(9)}
	if !tuples[0].Equal(row) || !tuples[1].Equal(target) {
		t.Fatalf("modify tuples = %v, want [%v %v]", tuples, row, target)
	}
	if _, ok := Modify("R", Pattern{AnyVar("x"), Const(I(3))}, []SetClause{Keep(), SetTo(I(9))}).RouteTuples(); ok {
		t.Fatal("unpinned modify reported routable")
	}
}
