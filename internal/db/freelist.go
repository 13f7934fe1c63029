package db

import "sync"

// FreeList keeps up to Max values between uses and hands back the one
// put last, or a New one. It is the one way scratch that crosses
// goroutines is recycled. Package sync's Pool is not: its Get never
// takes what another P put in its private slot, so how many values a
// request made depended on where its goroutines ran; every collection
// empties it; and under the race detector it drops a quarter of the
// puts on purpose, so no allocation gate could run there. What a
// FreeList keeps stays until it is taken or Empty drops it: each list
// says why its Max, and Max × what a kept value may hold is the most
// it retains.
type FreeList[T any] struct {
	New  func() T
	Max  int
	mu   sync.Mutex
	free []T
}

// Get takes the value put last, or makes one.
func (l *FreeList[T]) Get() T {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		clear(l.free[n-1:]) // the list does not pin what it handed out
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return x
	}
	l.mu.Unlock()
	return l.New()
}

// Put keeps x, unless Max values are kept already.
func (l *FreeList[T]) Put(x T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < l.Max {
		l.free = append(l.free, x)
	}
}

// Empty drops what l keeps, so the next Gets make every value they
// return: a test of cold allocation.
func (l *FreeList[T]) Empty() {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.free)
	l.free = l.free[:0]
}
