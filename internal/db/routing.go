package db

// Shard routing analysis for hyperplane updates. The engine partitions
// rows across its storage shards by Tuple.Fingerprint; an update touches
// a single known row exactly when its constraints pin every attribute to
// an =-constant (the row identity covers all attributes, so "pinned"
// means the selection is a fully constant u-tuple). Updates with free
// variables or ≠ constraints select a hyperplane that may intersect
// every shard and must fan out. Theorem 5.3 locality makes the fan-out
// safe: each row's normal form is maintained from that row's annotation
// and the query annotation alone, so disjoint row partitions can apply
// the same hyperplane query independently.

// ShardOfTuple maps a tuple to a shard in [0, shards) by folding its
// Fingerprint, so routing never materializes Key() strings. Engine
// output is independent of row placement (global sequence-order merge),
// so any consistent partition yields byte-identical results.
func ShardOfTuple(t Tuple, shards int) int {
	if shards <= 1 {
		return 0
	}
	return ShardOfFingerprint(t.Fingerprint(), shards)
}

// ShardOfFingerprint maps an already-computed tuple fingerprint to its
// shard — callers that cached Fingerprint() route without rehashing.
func ShardOfFingerprint(fp uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int((fp ^ fp>>32) % uint64(shards))
}

// PinnedTuple reports whether the pattern pins every attribute to an
// =-constant, and if so returns the single tuple it can match. Variable
// terms — even ones restricted by disequalities — leave the pattern
// unpinned, and an unpinned pattern allocates nothing.
func (p Pattern) PinnedTuple() (Tuple, bool) {
	return p.AppendPinned(nil)
}

// AppendPinned is PinnedTuple building the tuple in dst's capacity when
// it suffices, for callers that probe with it and keep the buffer (the
// scan planner's point lookup).
func (p Pattern) AppendPinned(dst Tuple) (Tuple, bool) {
	for i := range p {
		if !p[i].isConst {
			return nil, false
		}
	}
	if cap(dst) < len(p) {
		dst = make(Tuple, len(p))
	}
	dst = dst[:len(p)]
	for i := range p {
		dst[i] = p[i].value
	}
	return dst, true
}

// RouteTuples returns every row the update can touch, when constraint
// analysis pins them: an insertion touches exactly the inserted row; a
// pinned deletion the selected tuple; a pinned modification the
// selected tuple and its target. ok=false means the selection leaves
// attributes free and the update must be evaluated against every shard.
func (u Update) RouteTuples() (tuples []Tuple, ok bool) {
	switch u.Kind {
	case OpInsert:
		return []Tuple{u.Row}, true
	case OpDelete:
		t, pinned := u.Sel.PinnedTuple()
		if !pinned {
			return nil, false
		}
		return []Tuple{t}, true
	case OpModify:
		t, pinned := u.Sel.PinnedTuple()
		if !pinned || len(u.Set) > len(t) {
			// More SET clauses than attributes has no target; Validate
			// rejects the update wherever it would apply.
			return nil, false
		}
		return []Tuple{t, u.Target(t)}, true
	default:
		return nil, false
	}
}
