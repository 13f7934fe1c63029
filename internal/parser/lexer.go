// Package parser provides two textual front ends for hyperplane update
// transactions: the SQL fragment identified in Section 2 of the paper
// (single-tuple INSERT, DELETE/UPDATE with conjunctions of
// AttributeName op constant predicates, op ∈ {=, <>}), and the paper's
// datalog-like notation (R+,p(u):-, R-,p(u):-, RM,p(u1, u2):-).
//
// Both parsers produce db.Update / db.Transaction values validated
// against a schema, so everything they accept is inside the hyperplane
// fragment by construction.
//
// Both pull tokens from one lexer with a single token of lookahead, so
// the source is scanned as it is parsed and errors come in source
// order: a syntax error is reported even when an unterminated string
// follows it later in the input, and an unterminated string is reported
// as soon as the parser is within one token of it.
//
// A result does not keep the source alive past its own life:
// transaction labels are cloned, string constants are interned by db.S
// (which clones on first sight) and relation and SQL variable names
// come from the schema. Only datalog variable names are substrings of
// the source, for as long as the db.Update that carries them.
//
// Each front end has two entry points over one parser. ParseSQLLog and
// ParseDatalogLog take a string and return transactions the collector
// owns. ParseSQLBatch and ParseDatalogBatch scan a request's bytes in
// place and return a Batch whose transactions are borrowed: everything
// an engine does not keep of a transaction (db.Transaction) — update
// lists, inserted rows, patterns, SET lists, disequality constants —
// lives in the recycled parser's slabs (db.Builder) and is recycled by
// Release, after which the bytes may be reused too. Labels are allocated
// one by one either way: the engine keeps those.
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
	tokPunct // single punctuation rune, or the two-rune <> and != and :- and ->
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

// lexer scans src on demand. tok is the lookahead token and pos the
// offset just past it. Identifiers, numbers, ASCII punctuation and
// string literals without a doubled quote are substrings of src.
type lexer struct {
	src string
	pos int
	tok token
	err error // an unterminated string; the lookahead is EOF from then on
}

func (l *lexer) init(src string) {
	*l = lexer{src: src}
	l.advance()
}

// fail is what every entry point returns through: the lexical error
// wins over what the parser made of the EOF standing in for it.
func (l *lexer) fail(err error) error {
	if l.err != nil {
		return l.err
	}
	return err
}

// Bytes are classified as the Latin-1 runes of the same value, so a
// byte ≥ 0x80 goes through unicode.*; ASCII never does.
func isSpace(c byte) bool {
	if c < 0x80 {
		return c == ' ' || (c >= '\t' && c <= '\r')
	}
	return unicode.IsSpace(rune(c))
}

func isLetter(c byte) bool {
	if c < 0x80 {
		return (c|0x20 >= 'a' && c|0x20 <= 'z') || c == '_'
	}
	return unicode.IsLetter(rune(c))
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// advance scans the next token into l.tok. It is never called past
// EOF, which is also where a lexical error leaves the lookahead.
func (l *lexer) advance() {
	src, pos := l.src, l.pos
	for pos < len(src) {
		c := src[pos]
		if isSpace(c) {
			pos++
			continue
		}
		if c == '-' && pos+1 < len(src) && src[pos+1] == '-' {
			// SQL comment to end of line.
			for pos < len(src) && src[pos] != '\n' {
				pos++
			}
			continue
		}
		break
	}
	if pos >= len(src) {
		l.pos = pos
		l.tok = token{kind: tokEOF, pos: pos}
		return
	}
	start := pos
	c := src[pos]
	switch {
	case c == '\'' || c == '"':
		l.scanString(start, c)
		return
	case isDigit(c) || (c == '-' && pos+1 < len(src) && isDigit(src[pos+1])):
		pos++
		for pos < len(src) && (isDigit(src[pos]) || src[pos] == '.') {
			pos++
		}
		// Exponent [eE][+-]?digits: db.Value.String renders floats
		// with 'g', so anything from 1e6 up, or below 1e-4, comes back
		// from the formatters in this shape. Taken only when a digit
		// follows, so "1e" stays a number and an identifier.
		if pos < len(src) && (src[pos] == 'e' || src[pos] == 'E') {
			end := pos + 1
			if end < len(src) && (src[end] == '+' || src[end] == '-') {
				end++
			}
			if end < len(src) && isDigit(src[end]) {
				for end < len(src) && isDigit(src[end]) {
					end++
				}
				pos = end
			}
		}
		l.tok = token{kind: tokNumber, text: src[start:pos], pos: start}
	case isLetter(c):
		for pos < len(src) && (isLetter(src[pos]) || isDigit(src[pos])) {
			pos++
		}
		l.tok = token{kind: tokIdent, text: src[start:pos], pos: start}
	default:
		n := 1
		if pos+1 < len(src) {
			switch src[pos : pos+2] {
			case "<>", "!=", ":-", "->":
				n = 2
			}
		}
		text := src[pos : pos+n]
		if c >= 0x80 {
			text = string(rune(c)) // the byte's Latin-1 rune, as error texts print it
		}
		pos += n
		l.tok = token{kind: tokPunct, text: text, pos: start}
	}
	l.pos = pos
}

// scanString scans the literal opening at start. A doubled quote
// escapes itself; only then is the text built rather than sliced.
func (l *lexer) scanString(start int, quote byte) {
	src, from := l.src, start+1
	var built []byte
	for pos := from; ; {
		i := strings.IndexByte(src[pos:], quote)
		if i < 0 {
			l.err = fmt.Errorf("parser: unterminated string at offset %d", start)
			l.pos, l.tok = len(src), token{kind: tokEOF, pos: start}
			return
		}
		pos += i + 1
		if pos == len(src) || src[pos] != quote {
			text := src[from : pos-1]
			if built != nil {
				text = string(append(built, text...))
			}
			l.pos, l.tok = pos, token{kind: tokString, text: text, pos: start}
			return
		}
		built = append(built, src[from:pos]...) // up to and with one of the two quotes
		pos++
		from = pos
	}
}

func (l *lexer) next() token {
	t := l.tok
	if t.kind != tokEOF {
		l.advance()
	}
	return t
}

// acceptPunct consumes the next token if it is the given punctuation.
func (l *lexer) acceptPunct(p string) bool {
	if l.tok.kind == tokPunct && l.tok.text == p {
		l.advance()
		return true
	}
	return false
}

// acceptKeyword consumes the next token if it is the identifier kw
// (case-insensitive).
func (l *lexer) acceptKeyword(kw string) bool {
	if l.tok.kind == tokIdent && strings.EqualFold(l.tok.text, kw) {
		l.advance()
		return true
	}
	return false
}

func (l *lexer) expectPunct(p string) error {
	if !l.acceptPunct(p) {
		return fmt.Errorf("parser: expected %q at offset %d, got %q", p, l.tok.pos, l.tok.text)
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
