package db

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
