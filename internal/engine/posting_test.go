package engine

import (
	"math/rand"
	"slices"
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
// appends, revivals (mid-list inserts of positions compacted out earlier)
// and compactions, against a plain []uint32, checking contents, order and
// chunk layout after every operation. Each sequence grows to a random
// length, the first past 2 048, so the lists cross the inline chunk and
// every boundary after it, then compacts at a random keep ratio.
func TestPostingListModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		var (
			pl      postingList
			held    = len(pl.head)
			model   []uint32
			revived []uint32 // positions compacted out, free to come back
			next    uint32   // the next new row's position
		)
		for round := 0; round < 5; round++ {
			target := r.Intn(3*colChunk + 100)
			if round == 0 {
				target = 2*colChunk + 50
			}
			for len(model) < target {
				if len(revived) > 0 && r.Intn(8) == 0 {
					k := r.Intn(len(revived))
					p := revived[k]
					revived = slices.Delete(revived, k, k+1)
					if !pl.insert(p, &held) {
						t.Fatalf("seed %d: revival of %d reported present", seed, p)
					}
					i, _ := slices.BinarySearch(model, p)
					model = slices.Insert(model, i, p)
					checkPosting(t, "revive", &pl, held, model)
					continue
				}
				if !pl.insert(next, &held) {
					t.Fatalf("seed %d: append of %d reported present", seed, next)
				}
				model = append(model, next)
				next += 1 + uint32(r.Intn(3))
				checkPosting(t, "append", &pl, held, model)
			}
			if len(model) > 0 {
				if p := model[r.Intn(len(model))]; pl.insert(p, &held) {
					t.Fatalf("seed %d: insert of present %d reported new", seed, p)
				}
			}
			ratio := r.Float64()
			keep := func(p uint32) bool { return float64(p%97)/97 < ratio }
			pl.retain(keep, &held)
			kept := model[:0]
			for _, p := range model {
				if keep(p) {
					kept = append(kept, p)
				} else {
					revived = append(revived, p)
				}
			}
			model = kept
			checkPosting(t, "compact", &pl, held, model)
		}
	}
}

// TestPostingListAllocs: an append allocates only when it opens a chunk,
// and a compaction to below half allocates nothing and frees the chunks
// past the kept length, so the list grows them afresh.
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
	full := len(pl.rest)
	if got := testing.AllocsPerRun(1, func() {
		pl.retain(func(p uint32) bool { return p < 300 }, &held)
	}); got != 0 {
		t.Fatalf("compaction allocated %v times", got)
	}
	checkPosting(t, "compact", &pl, held, positions(&pl))
	if want, _ := chunkOf(299, postingInlineBits); len(pl.rest) != want || slices.ContainsFunc(pl.rest[:full][want:], func(c []uint32) bool { return c != nil }) {
		t.Fatalf("after compacting to 300: %d chunks kept, want %d and the rest dropped", len(pl.rest), want)
	}
	for pl.n < 511 { // the measured push opens the chunk at 512
		pl.push(uint32(pl.n), &held)
	}
	if got := testing.AllocsPerRun(1, push); got == 0 {
		t.Fatal("re-growing past a freed chunk allocated nothing")
	}
}

// positions copies a list's positions out.
func positions(pl *postingList) []uint32 {
	out := make([]uint32, pl.n)
	for i := range out {
		out[i] = pl.from(i)[0]
	}
	return out
}
