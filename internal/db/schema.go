package db

import (
	"fmt"
	"strings"
)

// Attribute is a named, typed column of a relation.
type Attribute struct {
	Name string
	Kind Kind
}

// RelationSchema describes one relation: its name and ordered attributes.
type RelationSchema struct {
	Name  string
	Attrs []Attribute
	// lower holds the lower-cased attribute names (see VarName).
	lower []string
}

// NewRelationSchema builds a relation schema, validating that attribute
// names are non-empty and unique.
func NewRelationSchema(name string, attrs ...Attribute) (*RelationSchema, error) {
	if name == "" {
		return nil, fmt.Errorf("db: relation name must not be empty")
	}
	seen := make(map[string]struct{}, len(attrs))
	lower := make([]string, len(attrs))
	for i, a := range attrs {
		lower[i] = strings.ToLower(a.Name)
		if a.Name == "" {
			return nil, fmt.Errorf("db: relation %s has an unnamed attribute", name)
		}
		if _, dup := seen[a.Name]; dup {
			return nil, fmt.Errorf("db: relation %s has duplicate attribute %s", name, a.Name)
		}
		seen[a.Name] = struct{}{}
	}
	return &RelationSchema{Name: name, Attrs: attrs, lower: lower}, nil
}

// MustRelationSchema is NewRelationSchema that panics on error; for
// statically known schemas.
func MustRelationSchema(name string, attrs ...Attribute) *RelationSchema {
	r, err := NewRelationSchema(name, attrs...)
	if err != nil {
		panic(err)
	}
	return r
}

// Arity reports the number of attributes.
func (r *RelationSchema) Arity() int { return len(r.Attrs) }

// AttrIndex returns the position of the named attribute, or -1.
func (r *RelationSchema) AttrIndex(name string) int {
	for i, a := range r.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// VarName returns attribute i's name in lower case: the variable the
// SQL front end puts at a position its WHERE clause leaves open. It is
// computed once, when the schema is built.
func (r *RelationSchema) VarName(i int) string {
	if r.lower == nil { // a literal, not from NewRelationSchema
		return strings.ToLower(r.Attrs[i].Name)
	}
	return r.lower[i]
}

// String renders "Name(attr:kind, ...)".
func (r *RelationSchema) String() string {
	var b strings.Builder
	b.WriteString(r.Name)
	b.WriteByte('(')
	for i, a := range r.Attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Name)
		b.WriteByte(':')
		b.WriteString(a.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Schema is a set of relation schemas keyed by relation name, in
// declaration order.
type Schema struct {
	byName map[string]int // position in rels
	rels   []*RelationSchema
	order  []string
}

// NewSchema builds a schema from relation schemas, rejecting duplicates.
func NewSchema(rels ...*RelationSchema) (*Schema, error) {
	s := &Schema{byName: make(map[string]int, len(rels))}
	for _, r := range rels {
		if _, dup := s.byName[r.Name]; dup {
			return nil, fmt.Errorf("db: duplicate relation %s", r.Name)
		}
		s.byName[r.Name] = len(s.rels)
		s.rels = append(s.rels, r)
		s.order = append(s.order, r.Name)
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error.
func MustSchema(rels ...*RelationSchema) *Schema {
	s, err := NewSchema(rels...)
	if err != nil {
		panic(err)
	}
	return s
}

// Relation returns the schema of the named relation, or nil.
func (s *Schema) Relation(name string) *RelationSchema {
	if i, ok := s.byName[name]; ok {
		return s.rels[i]
	}
	return nil
}

// Position returns the named relation's position in declaration order,
// or -1.
func (s *Schema) Position(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// At returns the relation at position i of declaration order, or nil
// when i is out of range.
func (s *Schema) At(i int) *RelationSchema {
	if i < 0 || i >= len(s.rels) {
		return nil
	}
	return s.rels[i]
}

// Names returns the relation names in declaration order. The returned
// slice must not be modified.
func (s *Schema) Names() []string { return s.order }
