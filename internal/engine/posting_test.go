package engine

import (
	"math/rand"
	"testing"
)

// checkPosting holds a posting list to its model: the same positions in
// the same order, and exactly the chunks n positions need — the inline
// one, then 4, 8, … colChunk/2 and colChunk slots — all counted in held.
func checkPosting(t *testing.T, step string, pl *postingList, held int, model []uint32) {
	t.Helper()
	if pl.n != len(model) {
		t.Fatalf("%s: n = %d, model holds %d", step, pl.n, len(model))
	}
	for i, p := range model {
		if got := pl.from(i)[0]; got != p {
			t.Fatalf("%s: position %d holds %d, model %d", step, i, got, p)
		}
	}
	chunks, slots := 0, len(pl.head)
	if pl.n > len(pl.head) {
		chunks, _ = chunkOf(pl.n-1, postingInlineBits)
	}
	for i, c := range pl.rest {
		if start := len(pl.head) << i; len(c) != min(start, colChunk) {
			t.Fatalf("%s: chunk %d holds %d slots, want %d", step, i+1, len(c), min(start, colChunk))
		}
		slots += len(c)
	}
	if len(pl.rest) != chunks || held != slots {
		t.Fatalf("%s: %d chunks past the inline one holding %d slots (held %d), want %d chunks", step, len(pl.rest), slots, held, chunks)
	}
}

// TestPostingListModel drives chunked posting lists through seeded random
// appends against a plain []uint32, checking contents, order and chunk
// layout after every one. Positions only grow (table.create appends the
// new row's, the largest), with random gaps for the rows holding other
// values. Each list grows to a random length, the first past 2 048, so
// the lists cross the inline chunk and every boundary after it.
func TestPostingListModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		var (
			pl    postingList
			held  = len(pl.head)
			model []uint32
			next  uint32 // the next row's position
		)
		target := r.Intn(3*colChunk + 100)
		if seed == 1 {
			target = 2*colChunk + 50
		}
		checkPosting(t, "empty", &pl, held, model)
		for len(model) < target {
			pl.push(next, &held)
			model = append(model, next)
			next += 1 + uint32(r.Intn(3))
			checkPosting(t, "append", &pl, held, model)
		}
	}
}

// TestPostingListAllocs: an append allocates only when it opens a chunk.
func TestPostingListAllocs(t *testing.T) {
	var pl postingList
	held := len(pl.head)
	// AllocsPerRun calls its function twice for one run: the warm-up
	// pushes position n, the measured call position n+1.
	push := func() { pl.push(uint32(pl.n), &held) }
	for pl.n < 3*colChunk {
		n := pl.n + 1
		ci, off := chunkOf(n, postingInlineBits)
		opens := ci > 0 && off == 0
		if got := testing.AllocsPerRun(1, push); (got > 0) != opens {
			t.Fatalf("append at %d allocated %v times; opens a chunk: %v", n, got, opens)
		}
	}
	checkPosting(t, "appended", &pl, held, positions(&pl))
}

// positions copies a list's positions out.
func positions(pl *postingList) []uint32 {
	out := make([]uint32, pl.n)
	for i := range out {
		out[i] = pl.from(i)[0]
	}
	return out
}
