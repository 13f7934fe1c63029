package db_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hyperprov/internal/db"
)

// TestInternCostPerStringIsConstant: interning a new distinct string
// appends to its shard's table in place and copies the table only when
// it doubles. It used to re-allocate and copy the shard's whole table
// for every new string, so the cost per string grew with the table:
// 16 kB each by 20 000 strings, 200 kB each by 200 000.
func TestInternCostPerStringIsConstant(t *testing.T) {
	const total = 200_000
	fresh := make([]string, total)
	for i := range fresh {
		fresh[i] = fmt.Sprintf("strtab-cost-%07d", i)
	}
	var ms runtime.MemStats
	allocated := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	done := 0
	for _, upto := range []int{1_000, 10_000, 50_000, total} {
		before := allocated()
		for _, s := range fresh[done:upto] {
			db.S(s)
		}
		per := float64(allocated()-before) / float64(upto-done)
		// The clone, the id map's entry and growth, the table's doubling.
		if per > 400 {
			t.Fatalf("strings %d–%d: %.0f bytes allocated per new string, want a small constant", done, upto, per)
		}
		t.Logf("strings %d–%d: %.0f B each", done, upto, per)
		done = upto
	}
	if got := db.S(fresh[total/2]).Str(); got != fresh[total/2] {
		t.Fatalf("round trip: %q", got)
	}
}

// TestInternOwnsItsPayload: a Value made from a substring must not keep
// the string it was cut from reachable (the table clones on first
// sight).
func TestInternOwnsItsPayload(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	vals := make([]db.Value, 64)
	for i := range vals {
		big := fmt.Sprintf("own-%03d-", i) + strings.Repeat("x", 256<<10)
		vals[i] = db.S(big[:8])
	}
	if retained := int64(heap()) - int64(before); retained > 1<<20 {
		t.Fatalf("64 eight-byte values keep %d bytes reachable: the 256 kB strings they were cut from", retained)
	}
	runtime.KeepAlive(vals)
}

// TestInternConcurrentAppendAndLookup: writers append new strings to the
// shards in place while readers resolve ids they were handed earlier —
// the element is stored before the length that admits it is published,
// and a grown table is published before that length. Run under -race.
func TestInternConcurrentAppendAndLookup(t *testing.T) {
	const workers, each = 8, 4000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []db.Value
			for i := 0; i < each; i++ {
				// Half the payloads are shared with the other workers.
				s := fmt.Sprintf("conc-%d-%d", w%2*100+w*(i%2), i)
				v := db.S(s)
				if got := v.Str(); got != s {
					t.Errorf("S(%q).Str() = %q", s, got)
					return
				}
				mine = append(mine, v)
				if old := mine[i/2]; old != db.S(old.Str()) {
					t.Errorf("id of %q not stable", old.Str())
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
