package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"
)

// refKernelWords is frozen: changing it (or anything in refKernel)
// breaks the comparability of host.ref_kernel_ms across result sets.
const refKernelWords = 128 << 10

// refKernel is a fixed pure-CPU piece of work — seeded map inserts, a
// sort and an FNV pass over 128 Ki words — that touches nothing of the
// system under test.
func refKernel() uint64 {
	r := rand.New(rand.NewSource(42))
	m := make(map[uint64]uint64, refKernelWords)
	ws := make([]uint64, refKernelWords)
	for i := range ws {
		ws[i] = r.Uint64()
		m[ws[i]] = uint64(i)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	h := fnv.New64a()
	var b [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(b[:], w^m[w])
		h.Write(b[:])
	}
	return h.Sum64()
}

// refKernelMs times the kernel for about half a second and returns the
// median of its rounds in milliseconds. It is printed next to the
// results so a reader comparing two result sets can see how much the
// host itself moved; it never normalises anything.
func refKernelMs() float64 {
	var rounds []float64
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		t := time.Now()
		refKernel()
		rounds = append(rounds, ms(time.Since(t)))
	}
	return median(rounds)
}
