package db

import (
	"fmt"
	"strings"
)

// Tuple is an ordered list of attribute values conforming to a relation
// schema. Tuples are immutable by convention: updates produce new tuples.
type Tuple []Value

// NewTuple is a convenience constructor.
func NewTuple(vals ...Value) Tuple { return Tuple(vals) }

// Key returns an unambiguous string encoding of the tuple, used as the
// hash-map key for set semantics and annotation lookup.
func (t Tuple) Key() string {
	var buf [64]byte
	return string(t.AppendKey(buf[:0]))
}

// AppendKey appends Key()'s bytes to dst, for callers that only order
// or compare keys and keep them in scratch memory.
func (t Tuple) AppendKey(dst []byte) []byte {
	for i, v := range t {
		if i > 0 {
			dst = append(dst, '|')
		}
		dst = v.appendKey(dst)
	}
	return dst
}

// fnvOffset64 and fnvPrime64 are the FNV-1a 64-bit parameters.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// Fingerprint returns a 64-bit FNV-1a hash of the tuple's kind tags and
// payload words. It identifies the tuple for row-map lookup without
// building the Key() string, so the apply/read hot path stays
// allocation-free; probe sites disambiguate hash collisions with
// Equal. Fingerprints hash interned string ids, so they are process-
// local and must never be persisted — Key() remains the durable
// encoding.
func (t Tuple) Fingerprint() uint64 {
	h := fnvOffset64
	for _, v := range t {
		h ^= uint64(v.kind)
		h *= fnvPrime64
		b := v.bits
		for i := 0; i < 8; i++ {
			h ^= b & 0xff
			h *= fnvPrime64
			b >>= 8
		}
	}
	return h
}

// Equal reports value equality of two tuples.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if t[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// String renders "(v1, v2, ...)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Conforms checks the tuple against a relation schema (arity and kinds).
func (t Tuple) Conforms(r *RelationSchema) error {
	if len(t) != len(r.Attrs) {
		return fmt.Errorf("db: tuple %v has arity %d, relation %s needs %d", t, len(t), r.Name, len(r.Attrs))
	}
	for i, v := range t {
		if v.Kind() != r.Attrs[i].Kind {
			return fmt.Errorf("db: tuple %v attribute %s has kind %v, want %v", t, r.Attrs[i].Name, v.Kind(), r.Attrs[i].Kind)
		}
	}
	return nil
}
