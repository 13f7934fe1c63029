package db

import "sync/atomic"

// Builder hands out the slices a Transaction is made of from slabs it
// recycles. It is how the wire producers — the SQL and datalog parsers
// behind /v1/ingest, the WAL record decoder behind replay — build the
// transactions an engine only borrows (see Transaction). Every slice
// comes zeroed, capped at its length (an append by its holder copies
// instead of running into a neighbour) and never moves: a slab that
// runs out starts a fresh chunk, as large as the request that found it
// empty and doubling from there, and leaves the old one to the slices
// cut from it. Reset takes everything back at once; a Builder that is
// never Reset is a plain allocator whose results the collector owns.
// Labels are not built here: the engine keeps them (they name its query
// annotations), so their producers allocate each on its own.
//
// Not safe for concurrent use; the zero value is ready.
type Builder struct {
	txns  slab[Transaction]
	ups   slab[Update]
	terms slab[Term]
	sets  slab[SetClause]
	vals  slab[Value]
}

// Transactions, Updates, Pattern, Set and Values (an inserted row, a
// term's disequality constants) return n zeroed elements, nil for none.
func (b *Builder) Transactions(n int) []Transaction { return b.txns.take(n) }
func (b *Builder) Updates(n int) []Update           { return b.ups.take(n) }
func (b *Builder) Pattern(n int) Pattern            { return b.terms.take(n) }
func (b *Builder) Set(n int) []SetClause            { return b.sets.take(n) }
func (b *Builder) Values(n int) []Value             { return b.vals.take(n) }

// PoisonOnReset makes Reset overwrite what it takes back with junk — a
// constant of no kind, which equals no value, an unknown update kind
// and relation — and abandon the chunk instead of reusing it, so that
// whatever kept a borrowed slice reads garbage from then on. For the
// tests of the borrow contract.
var PoisonOnReset atomic.Bool

// Reset takes back every slice handed out since the last Reset: their
// holders must be done with them. One chunk per slab is kept, cleared.
func (b *Builder) Reset() {
	poison, v := PoisonOnReset.Load(), Value{kind: 0xff}
	b.txns.reset(poison, Transaction{Label: "\xffpoisoned"})
	b.ups.reset(poison, Update{Kind: 0xff, Rel: "\xffpoisoned"})
	b.terms.reset(poison, Const(v))
	b.sets.reset(poison, SetTo(v))
	b.vals.reset(poison, v)
}

// slabMax caps, in elements, how far chunks double and what a Reset
// keeps: a larger chunk served one outsized request and goes with it.
const slabMax = 1 << 13

// slab is the current chunk at its full length and how much of it is
// handed out.
type slab[T any] struct {
	buf  []T
	used int
}

func (s *slab[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	if len(s.buf)-s.used < n {
		s.buf, s.used = make([]T, max(n, min(2*len(s.buf), slabMax))), 0
	}
	s.used += n
	return s.buf[s.used-n : s.used : s.used]
}

func (s *slab[T]) reset(poison bool, junk T) {
	if poison {
		for i := range s.buf[:s.used] {
			s.buf[i] = junk
		}
	}
	if poison || len(s.buf) > slabMax {
		*s = slab[T]{}
	}
	clear(s.buf[:s.used])
	s.used = 0
}
