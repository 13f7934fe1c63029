package db

import (
	"testing"
)

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
		// scan asks, and most are unpinned.
		if avg := testing.AllocsPerRun(100, func() { _, _ = p.PinnedTuple() }); avg != 0 {
			t.Errorf("%s: PinnedTuple on an unpinned pattern allocates %v times, want 0", name, avg)
		}
	}
}
