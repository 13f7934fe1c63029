package db

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestFreeList: Get hands back the value put last and calls New only
// when the list is empty, a Put past Max drops its value, and Empty
// drops everything kept. Eight goroutines taking and putting back never
// hold one value at once.
func TestFreeList(t *testing.T) {
	made := 0
	l := FreeList[*int]{Max: 2, New: func() *int { made++; return new(int) }}
	a, b, c := new(int), new(int), new(int)
	l.Put(a)
	l.Put(b)
	l.Put(c) // past Max: dropped
	if got := l.Get(); got != b {
		t.Fatalf("Get returned %p, want the value put last, %p", got, b)
	}
	if got := l.Get(); got != a {
		t.Fatalf("Get returned %p, want %p", got, a)
	}
	if made != 0 {
		t.Fatalf("New ran %d times while the list held values", made)
	}
	if got := l.Get(); got == a || got == b || got == c || made != 1 {
		t.Fatalf("Get on an empty list returned a kept value or ran New %d times, want once", made)
	}
	l.Put(a)
	l.Empty()
	if got := l.Get(); got == a || made != 2 {
		t.Fatalf("Get after Empty returned a kept value or ran New %d times, want twice", made)
	}

	const goroutines, rounds = 8, 2000
	var held [goroutines]atomic.Bool // a value is an index into held
	var next atomic.Int32
	shared := FreeList[*int]{Max: goroutines, New: func() *int {
		i := int(next.Add(1)) - 1
		return &i
	}}
	var wg sync.WaitGroup
	var twice atomic.Int32
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				x := shared.Get()
				if !held[*x].CompareAndSwap(false, true) {
					twice.Add(1)
				}
				held[*x].Store(false)
				shared.Put(x)
			}
		}()
	}
	wg.Wait()
	if n := twice.Load(); n != 0 {
		t.Fatalf("a value was held by two goroutines at once %d times", n)
	}
	if n := next.Load(); n > goroutines {
		t.Fatalf("New ran %d times for %d goroutines", n, goroutines)
	}
}
