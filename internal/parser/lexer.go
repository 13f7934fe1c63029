// Package parser provides two textual front ends for hyperplane update
// transactions: the SQL fragment identified in Section 2 of the paper
// (single-tuple INSERT, DELETE/UPDATE with conjunctions of
// AttributeName op constant predicates, op ∈ {=, <>}), and the paper's
// datalog-like notation (R+,p(u):-, R-,p(u):-, RM,p(u1, u2):-).
//
// Both parsers produce db.Update / db.Transaction values validated
// against a schema, so everything they accept is inside the hyperplane
// fragment by construction.
package parser

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokNumber
	tokPunct // single punctuation rune, or the two-rune <> and != and :-
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
	i    int
}

func newLexer(src string) (*lexer, error) {
	l := &lexer{src: src}
	if err := l.scan(); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *lexer) scan() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case unicode.IsSpace(rune(c)):
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			// SQL comment to end of line.
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '\'' || c == '"':
			start := l.pos
			quote := c
			l.pos++
			var b strings.Builder
			for {
				if l.pos >= len(l.src) {
					return fmt.Errorf("parser: unterminated string at offset %d", start)
				}
				if l.src[l.pos] == quote {
					if l.pos+1 < len(l.src) && l.src[l.pos+1] == quote {
						b.WriteByte(quote) // doubled quote escapes itself
						l.pos += 2
						continue
					}
					l.pos++
					break
				}
				b.WriteByte(l.src[l.pos])
				l.pos++
			}
			l.toks = append(l.toks, token{kind: tokString, text: b.String(), pos: start})
		case isDigit(c) || (c == '-' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
			start := l.pos
			l.pos++
			for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.') {
				l.pos++
			}
			// Exponent [eE][+-]?digits: db.Value.String renders floats
			// with 'g', so anything from 1e6 up, or below 1e-4, comes back
			// from the formatters in this shape. Taken only when a digit
			// follows, so "1e" stays a number and an identifier.
			if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
				end := l.pos + 1
				if end < len(l.src) && (l.src[end] == '+' || l.src[end] == '-') {
					end++
				}
				if end < len(l.src) && isDigit(l.src[end]) {
					for end < len(l.src) && isDigit(l.src[end]) {
						end++
					}
					l.pos = end
				}
			}
			l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
		case unicode.IsLetter(rune(c)) || c == '_':
			start := l.pos
			for l.pos < len(l.src) && (unicode.IsLetter(rune(l.src[l.pos])) || unicode.IsDigit(rune(l.src[l.pos])) || l.src[l.pos] == '_') {
				l.pos++
			}
			l.toks = append(l.toks, token{kind: tokIdent, text: l.src[start:l.pos], pos: start})
		default:
			start := l.pos
			if rest := l.src[l.pos:]; strings.HasPrefix(rest, "<>") || strings.HasPrefix(rest, "!=") || strings.HasPrefix(rest, ":-") || strings.HasPrefix(rest, "->") {
				l.toks = append(l.toks, token{kind: tokPunct, text: rest[:2], pos: start})
				l.pos += 2
			} else {
				l.toks = append(l.toks, token{kind: tokPunct, text: string(c), pos: start})
				l.pos++
			}
		}
	}
	l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
	return nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (l *lexer) peek() token { return l.toks[l.i] }

func (l *lexer) next() token {
	t := l.toks[l.i]
	if t.kind != tokEOF {
		l.i++
	}
	return t
}

// acceptPunct consumes the next token if it is the given punctuation.
func (l *lexer) acceptPunct(p string) bool {
	if t := l.peek(); t.kind == tokPunct && t.text == p {
		l.i++
		return true
	}
	return false
}

// acceptKeyword consumes the next token if it is the identifier kw
// (case-insensitive).
func (l *lexer) acceptKeyword(kw string) bool {
	if t := l.peek(); t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		l.i++
		return true
	}
	return false
}

func (l *lexer) expectPunct(p string) error {
	if !l.acceptPunct(p) {
		return fmt.Errorf("parser: expected %q at offset %d, got %q", p, l.peek().pos, l.peek().text)
	}
	return nil
}

func (l *lexer) expectIdent() (string, error) {
	t := l.next()
	if t.kind != tokIdent {
		return "", fmt.Errorf("parser: expected identifier at offset %d, got %q", t.pos, t.text)
	}
	return t.text, nil
}
