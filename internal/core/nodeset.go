package core

import "math"

// Sets and tables of expression nodes, indexed by node id. A DAG walk
// that keyed a Go map by *Expr paid ≈ 75 bytes and a hash per distinct
// node; canonical nodes carry dense ids, so membership is one bit and a
// number one 32-bit word, in pages allocated when an id range is first
// touched. Nodes without an id — Zero, raw (DeepCopy) trees, anything
// interned past 2³² nodes — fall back to a pointer-keyed map. The zero
// value of either type is empty; neither is safe for concurrent use.

// NodeSet is a set of expression nodes; a page holds 4096 ids.
type NodeSet struct {
	pages []*[64]uint64
	noID  map[*Expr]struct{}
	n     int64
}

// Len reports the number of nodes in the set.
func (s *NodeSet) Len() int64 { return s.n }

// Add inserts e and reports whether it was absent.
func (s *NodeSet) Add(e *Expr) bool {
	if e.id == 0 {
		if _, ok := s.noID[e]; ok {
			return false
		}
		if s.noID == nil {
			s.noID = make(map[*Expr]struct{})
		}
		s.noID[e] = struct{}{}
		s.n++
		return true
	}
	w, bit := &page(&s.pages, e.id>>12)[e.id>>6&63], uint64(1)<<(e.id&63)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	s.n++
	return true
}

// page returns page i of a lazily paged table, allocating it (and the
// directory up to it) on first touch.
func page[P any](pages *[]*P, i uint32) *P {
	for int(i) >= len(*pages) {
		*pages = append(*pages, nil)
	}
	if (*pages)[i] == nil {
		(*pages)[i] = new(P)
	}
	return (*pages)[i]
}

// NodeIndex maps expression nodes to numbers a caller hands out once
// per node — positions in a node table being written, say. A number
// below 2³²−1 for a node with an id is a 32-bit word, biased by one so
// that an untouched word means absent.
type NodeIndex struct {
	pages []*[1024]uint32
	noID  map[*Expr]uint64
}

// Get returns the number stored for e.
func (x *NodeIndex) Get(e *Expr) (uint64, bool) {
	if pi := int(e.id >> 10); e.id != 0 && pi < len(x.pages) && x.pages[pi] != nil {
		if v := x.pages[pi][e.id&1023]; v != 0 {
			return uint64(v - 1), true
		}
	}
	v, ok := x.noID[e]
	return v, ok
}

// Set stores v for e.
func (x *NodeIndex) Set(e *Expr, v uint64) {
	if e.id != 0 && v < math.MaxUint32 {
		page(&x.pages, e.id>>10)[e.id&1023] = uint32(v) + 1
		return
	}
	if x.noID == nil {
		x.noID = make(map[*Expr]uint64)
	}
	x.noID[e] = v
}
