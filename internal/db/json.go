package db

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// Append-style JSON rendering of values and tuples: the bytes
// encoding/json (SetEscapeHTML(false)) writes for the []any a tuple
// used to be boxed into, without the boxing or the reflection. The
// what-if bodies (internal/server) and the subscription frames
// (internal/subscribe) are built from these.

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as the JSON string encoding/json writes
// with HTML escaping off: `"` and `\` escaped, control bytes as \b \f
// \n \r \t or \u00XX, invalid UTF-8 as \ufffd, and U+2028/U+2029
// escaped unconditionally.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = AppendJSONEscaped(dst, s)
	return append(dst, '"')
}

// AppendJSONEscaped appends the inside of AppendJSONString's result —
// s escaped, without the quotes — so a string can be rendered in
// pieces. The pieces must meet at ASCII bytes: a multi-byte rune split
// across two calls would be escaped as two invalid sequences.
func AppendJSONEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	return append(dst, s[start:]...)
}

// appendJSONFloat appends f as encoding/json writes a float64: ES6
// number-to-string — shortest 'f' form, exponent form below 1e-6 and
// from 1e21 with a one-digit negative exponent unpadded. NaN and ±Inf
// have no JSON encoding: ok=false and dst is returned unchanged.
func appendJSONFloat(dst []byte, f float64) (out []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// AppendJSON appends the value as encoding/json writes its payload — a
// string, an int64 or a float64. A NaN or ±Inf float has no JSON
// encoding: ok=false and dst comes back unchanged.
func (v Value) AppendJSON(dst []byte) (out []byte, ok bool) {
	switch v.kind {
	case KindInt:
		return strconv.AppendInt(dst, int64(v.bits), 10), true
	case KindFloat:
		return appendJSONFloat(dst, math.Float64frombits(v.bits))
	default:
		return AppendJSONString(dst, v.Str()), true
	}
}

// AppendJSON appends the tuple as the JSON array `[v,…]` of its
// values. bad is the index of the first attribute without a JSON
// encoding (which is then missing from the array), or -1.
func (t Tuple) AppendJSON(dst []byte) (out []byte, bad int) {
	bad = -1
	dst = append(dst, '[')
	for i, v := range t {
		if i > 0 {
			dst = append(dst, ',')
		}
		var ok bool
		if dst, ok = v.AppendJSON(dst); !ok && bad < 0 {
			bad = i
		}
	}
	return append(dst, ']'), bad
}

// ValueFromJSON converts one decoded JSON value (encoding/json's any:
// string or float64) to a value of the attribute's kind — the inverse
// of Value.AppendJSON: strings for string attributes, numbers for int
// (which must be integral) and float attributes. Numeric strings are
// accepted too, for convenience in curl sessions.
func (a Attribute) ValueFromJSON(raw any) (Value, error) {
	switch v := raw.(type) {
	case string:
		if a.Kind == KindString {
			return S(v), nil
		}
		val, err := ParseValue(a.Kind, v)
		if err != nil {
			return Value{}, fmt.Errorf("attribute %s: %v", a.Name, err)
		}
		return val, nil
	case float64:
		switch {
		case a.Kind == KindFloat:
			return F(v), nil
		case a.Kind == KindInt && v == math.Trunc(v):
			return I(int64(v)), nil
		case a.Kind == KindInt:
			return Value{}, fmt.Errorf("attribute %s wants an integer, got %v", a.Name, v)
		}
	}
	return Value{}, fmt.Errorf("attribute %s wants %v, got %T", a.Name, a.Kind, raw)
}
