package core

import (
	"strconv"
	"unsafe"
)

// String renders the expression in the paper's notation, e.g.
// "(p1 +M (p3 *M p)) - p". Binary operators are written infix with
// parentheses around compound operands; sums are written infix with "+".
func (e *Expr) String() string {
	b := e.AppendText(nil, nil)
	// b is never written again, so the string may alias it — what
	// strings.Builder does, minus its copy-check per piece.
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// AppendText appends String()'s text to dst without building the
// string. Every annotation name goes through name — nil appends it
// as it is — so a caller embedding the text in a quoted format can
// escape names in place: the rest is ASCII operators, parentheses,
// spaces and "0", which no format this repository writes escapes. Of a
// leaf Vars minted only the prefix goes through name; its index is
// appended after it, ASCII digits too.
func (e *Expr) AppendText(dst []byte, name func(dst []byte, s string) []byte) []byte {
	return e.appendText(dst, name, true)
}

func (e *Expr) appendText(dst []byte, name func([]byte, string) []byte, top bool) []byte {
	switch e.Op() {
	case OpZero:
		return append(dst, '0')
	case OpVar:
		if name == nil {
			dst, _ = e.AppendAnnot(dst)
			return dst
		}
		if x := e.ext.Load(); x != nil {
			return name(dst, x.annot().Name)
		}
		r, i := interns.ranges.Load().rangeOf(e)
		return strconv.AppendInt(name(dst, r.prefix), int64(i), 10)
	}
	if !top {
		dst = append(dst, '(')
	}
	for i, k := range e.Children() {
		if i > 0 {
			dst = append(append(append(dst, ' '), opSymbol(e.Op())...), ' ')
		}
		dst = k.appendText(dst, name, false)
	}
	if !top {
		dst = append(dst, ')')
	}
	return dst
}

func opSymbol(o Op) string {
	switch o {
	case OpPlusI:
		return "+I"
	case OpMinus:
		return "-"
	case OpPlusM:
		return "+M"
	case OpDotM:
		return "*M"
	case OpSum:
		return "+"
	default:
		return o.String()
	}
}
