package db

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// String interning. Every distinct string payload is stored once in a
// global, sharded, append-only table and referred to by a dense uint32
// id, so a Value carries one machine word instead of a string header and
// two string Values compare with a single integer comparison. Ids are
// process-local: they never reach snapshots or the WAL (the codecs write
// payloads via Str()), so restart or replication re-interning is
// invisible on disk.
//
// Layout: id = localIndex<<strShardBits | shard. Each shard owns a
// payload->id map guarded by a mutex (interning is off the read hot
// path) and an id->payload array published through an atomic pointer
// plus an atomic length, in the element-before-length discipline of the
// engine's column vectors, so Str() is a lock-free lookup. Id 0 is
// reserved for "" in shard 0, which keeps the zero Value equal to
// S("").
//
// The table owns its payloads: a string is cloned on first sight, so an
// interned Value never keeps the caller's backing array (a request
// body, a CSV line, a WAL segment) reachable.

const (
	strShardBits  = 4
	strShardCount = 1 << strShardBits
	strShardMask  = strShardCount - 1
)

type strShard struct {
	mu  sync.Mutex
	ids map[string]uint32
	// strs is the id->payload array at its full capacity and n the
	// number of published slots. The writer (under mu) stores the
	// element, then the array pointer if it had to grow, then n; a
	// reader loads n before strs, so every slot below the n it saw is
	// written in the array it sees. Slots are written once; the array
	// is copied only when it doubles.
	strs atomic.Pointer[[]string]
	n    atomic.Uint32
}

var strShards = func() *[strShardCount]strShard {
	var tab [strShardCount]strShard
	for i := range tab {
		tab[i].ids = make(map[string]uint32)
		s := make([]string, 16)
		tab[i].strs.Store(&s)
	}
	tab[0].ids[""] = 0
	tab[0].n.Store(1) // id 0 is the zero slot
	return &tab
}()

// strShardFor hashes the payload (FNV-1a) and folds to a shard index.
func strShardFor(s string) uint64 {
	h := fnvOffset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return (h ^ h>>32) & strShardMask
}

// internString returns the id of s, assigning one on first sight.
func internString(s string) uint32 {
	if s == "" {
		return 0
	}
	shard := strShardFor(s)
	sh := &strShards[shard]
	sh.mu.Lock()
	id, ok := sh.ids[s]
	if !ok {
		local := sh.n.Load()
		if local >= 1<<(32-strShardBits) {
			sh.mu.Unlock()
			panic("db: string intern table overflow")
		}
		id = local<<strShardBits | uint32(shard)
		s = strings.Clone(s)
		strs := *sh.strs.Load()
		if int(local) == len(strs) {
			grown := make([]string, 2*len(strs))
			copy(grown, strs)
			grown[local] = s
			sh.strs.Store(&grown)
		} else {
			strs[local] = s
		}
		sh.n.Store(local + 1)
		sh.ids[s] = id
	}
	sh.mu.Unlock()
	return id
}

// lookupString resolves an interned id back to its payload. Lock-free.
func lookupString(id uint32) string {
	sh := &strShards[id&strShardMask]
	idx := id >> strShardBits
	if idx >= sh.n.Load() {
		panic(fmt.Sprintf("db: unknown string id %d", id))
	}
	return (*sh.strs.Load())[idx]
}
