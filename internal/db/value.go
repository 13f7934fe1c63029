package db

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind is the type of an attribute value.
type Kind uint8

const (
	// KindString is a string-valued attribute.
	KindString Kind = iota
	// KindInt is a 64-bit integer attribute.
	KindInt
	// KindFloat is a 64-bit float attribute (prices, amounts).
	KindFloat
)

// String names the kind as used in CSV headers ("string", "int", "float").
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind parses the names produced by Kind.String.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "string":
		return KindString, nil
	case "int":
		return KindInt, nil
	case "float":
		return KindFloat, nil
	default:
		return 0, fmt.Errorf("db: unknown kind %q", s)
	}
}

// Value is a typed attribute value: a kind tag plus one payload word.
// Strings are interned into the global string table and carry their
// uint32 id; ints carry the two's-complement bits; floats carry their
// IEEE-754 bits. Values are comparable with == (two values are the same
// iff they have the same kind and payload word), which makes hyperplane
// equality and disequality tests a single integer comparison and keeps
// tuples flat comparable words.
//
// Float equality is bitwise: distinct NaN payloads differ, and -0 != 0.
// This matches the Key() encoding (which already rendered -0 and 0
// differently) rather than IEEE == semantics.
type Value struct {
	kind Kind
	bits uint64
}

// S returns a string value, interning the payload.
func S(v string) Value { return Value{kind: KindString, bits: uint64(internString(v))} }

// I returns an integer value.
func I(v int64) Value { return Value{kind: KindInt, bits: uint64(v)} }

// F returns a float value.
func F(v float64) Value { return Value{kind: KindFloat, bits: math.Float64bits(v)} }

// FromWord is the value of kind k whose payload word is w: it inverts
// Word for a store that keeps a column's words and knows its kind. A
// string word must be an id this process interned.
func FromWord(k Kind, w uint64) Value { return Value{kind: k, bits: w} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// Word returns the payload word: the string-table id, the integer's
// two's-complement bits or the float's IEEE-754 bits. Two values of one
// kind are equal iff their words are, which lets a column whose kind the
// schema fixes store and compare words alone.
func (v Value) Word() uint64 { return v.bits }

// Str returns the payload of a string value ("" for other kinds).
func (v Value) Str() string {
	if v.kind != KindString {
		return ""
	}
	return lookupString(uint32(v.bits))
}

// Int returns the payload of an integer value (0 for other kinds).
func (v Value) Int() int64 {
	if v.kind != KindInt {
		return 0
	}
	return int64(v.bits)
}

// Float returns the payload of a float value (0 for other kinds).
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		return 0
	}
	return math.Float64frombits(v.bits)
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindString:
		return v.Str()
	case KindInt:
		return strconv.FormatInt(int64(v.bits), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.bits), 'g', -1, 64)
	default:
		return "?"
	}
}

// ParseValue parses the representation produced by String back into a
// value of the given kind (used by the CSV loader and the query parsers).
func ParseValue(kind Kind, s string) (Value, error) {
	switch kind {
	case KindString:
		return S(s), nil
	case KindInt:
		i, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("db: bad int %q: %v", s, err)
		}
		return I(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return Value{}, fmt.Errorf("db: bad float %q: %v", s, err)
		}
		return F(f), nil
	default:
		return Value{}, fmt.Errorf("db: unknown kind %v", kind)
	}
}

// appendKey appends an unambiguous encoding of the value to dst, used
// to key tuples in hash maps and in the snapshot/WAL formats. The
// encoding is unchanged by interning: it always renders the payload
// itself.
func (v Value) appendKey(dst []byte) []byte {
	switch v.kind {
	case KindString:
		s := v.Str()
		dst = append(dst, 's')
		dst = strconv.AppendInt(dst, int64(len(s)), 10)
		dst = append(dst, ':')
		dst = append(dst, s...)
	case KindInt:
		dst = append(dst, 'i')
		dst = strconv.AppendInt(dst, int64(v.bits), 10)
	case KindFloat:
		dst = append(dst, 'f')
		dst = strconv.AppendFloat(dst, math.Float64frombits(v.bits), 'g', -1, 64)
	}
	return dst
}
