package ingest

import (
	"bytes"
	"fmt"
	"io"
)

// TokenKind classifies one lexical token of a governed format.
type TokenKind int

const (
	TokenIdent  TokenKind = iota // bare word: identifier, number, keyword
	TokenString                  // double-quoted string, quotes stripped
	TokenPunct                   // one punctuation byte from LexSpec.Puncts
	TokenEOF                     // end of input (not an error)
)

// Token is one lexical token with its 1-based source position.
type Token struct {
	Kind      TokenKind
	Text      string
	Line, Col int
}

func (t Token) String() string {
	if t.Kind == TokenEOF {
		return "end of file"
	}
	return fmt.Sprintf("%q", t.Text)
}

// LexSpec parameterizes the shared governed lexer for one format's
// surface syntax: which bytes are surfaced as punctuation tokens and
// which are silently skipped (value separators, line continuations).
// Whitespace, double-quoted strings and // and /* */ comments are
// handled the same way in every format.
type LexSpec struct {
	Puncts string
	Skip   string
}

// byteClass is how the lexer treats one input byte under a LexSpec. Any
// class but classIdent also ends an identifier.
type byteClass uint8

const (
	classIdent   byteClass = iota // starts or continues an identifier
	classSpace                    // whitespace or LexSpec.Skip: separates tokens
	classComment                  // '/': opens a // or /* */ comment
	classString                   // '"': opens a string
	classPunct                    // LexSpec.Puncts: a one-byte token
)

// classes tabulates every byte's class. A byte in several sets takes the
// first of whitespace/Skip, '/', '"', Puncts: later writes win, so they
// run in the reverse order.
func (s LexSpec) classes() [256]byteClass {
	var t [256]byteClass
	for _, b := range []byte(s.Puncts) {
		t[b] = classPunct
	}
	t['"'] = classString
	t['/'] = classComment
	for _, b := range []byte(" \t\r\n" + s.Skip) {
		t[b] = classSpace
	}
	return t
}

// Lexer produces tokens one at a time from a budget-governed byte
// stream: every token passes the Meter (token budget + context poll),
// identifiers and strings are length-bounded, and at most one token of
// text is held in memory. It scans whitespace, comments and identifiers
// over the Reader's buffered window rather than byte by byte; positions,
// budgets and errors are those of a byte-at-a-time scan. It is shared by
// the Liberty and Verilog streaming parsers.
type Lexer struct {
	r        *Reader
	m        *Meter
	class    [256]byteClass
	maxIdent int
	strings  bool   // give identifier tokens their Text
	buf      []byte // token text that crossed a window edge, and strings
	// The last identifier scanned is buf when identInBuf, else
	// r.win[identLo:identHi]. Indices, not a slice, so that recording it
	// stores no pointer.
	identLo, identHi int
	identInBuf       bool

	peeked bool
	tok    Token
	perr   error
}

// NewLexer builds a lexer over a governed Reader/Meter pair (lim must
// already have defaults applied, as the parsers' entry points ensure).
// Every token it returns carries its Text.
func NewLexer(r *Reader, m *Meter, lim Limits, spec LexSpec) *Lexer {
	lx := NewViewLexer(r, m, lim, spec)
	lx.strings = true
	return lx
}

// NewViewLexer is NewLexer for a parser that reads identifiers through
// Ident: identifier tokens come with an empty Text, so scanning one
// allocates nothing. Punctuation and string tokens carry their Text.
func NewViewLexer(r *Reader, m *Meter, lim Limits, spec LexSpec) *Lexer {
	return &Lexer{r: r, m: m, class: spec.classes(), maxIdent: lim.MaxIdent, buf: make([]byte, 0, 64)}
}

// Pos reports the 1-based position of the next unread byte.
func (lx *Lexer) Pos() (line, col int) { return lx.r.Pos() }

// Ident returns the text of the identifier token that Peek, Next or
// Advance returned last. It is a view into the lexer's buffers, valid
// until the next token is scanned; copy it to keep it.
func (lx *Lexer) Ident() []byte {
	if lx.identInBuf {
		return lx.buf
	}
	return lx.r.win[lx.identLo:lx.identHi]
}

// Peek returns the next token without consuming it.
func (lx *Lexer) Peek() (Token, error) {
	if !lx.peeked {
		lx.perr = lx.scan()
		lx.peeked = true
	}
	return lx.tok, lx.perr
}

// Next consumes and returns the next token. EOF and errors are sticky
// until ClearErr.
func (lx *Lexer) Next() (Token, error) {
	_, err := lx.Advance()
	return lx.tok, err
}

// Advance consumes the next token, as Next does, but returns only its
// kind; Last returns the token itself. A parser's hot loop that reads
// identifiers through Ident uses it to skip copying each Token.
func (lx *Lexer) Advance() (TokenKind, error) {
	if !lx.peeked {
		lx.perr = lx.scan()
		lx.peeked = lx.perr != nil || lx.tok.Kind == TokenEOF
	} else if lx.tok.Kind != TokenEOF && lx.perr == nil {
		lx.peeked = false
	}
	return lx.tok.Kind, lx.perr
}

// Last returns the token that Next, Advance or Peek returned last.
func (lx *Lexer) Last() Token { return lx.tok }

// ClearErr drops a stored scan error so error recovery can resume
// scanning after the offending bytes. Budget and context errors must not
// be cleared — parsers check their class first (File does).
func (lx *Lexer) ClearErr() {
	lx.peeked = false
	lx.perr = nil
}

// scan skips whitespace and comments and reads the next token into
// lx.tok (the zero Token on an error). A token's first byte is consumed
// before the Meter is charged for it, so a budget or context error
// reports the position just past that byte. The token is written in
// place rather than returned: passing a Token up through the scanners
// by value cost more than scanning it.
func (lx *Lexer) scan() error {
	lx.identLo, lx.identHi, lx.identInBuf = 0, 0, false
	for {
		w, err := lx.r.window()
		if err == io.EOF {
			line, col := lx.r.Pos()
			lx.tok = Token{Kind: TokenEOF, Line: line, Col: col}
			return nil
		}
		if err != nil {
			return lx.fail(err)
		}
		i := 0
		for i < len(w) && lx.class[w[i]] == classSpace {
			i++
		}
		if i == len(w) {
			lx.r.consume(w)
			continue
		}
		if i > 0 {
			lx.r.consume(w[:i])
		}
		lx.r.advance(1) // a token's first byte is never a newline
		switch lx.class[w[i]] {
		case classComment:
			if err := lx.skipComment(); err != nil {
				return lx.fail(err)
			}
		case classString:
			return lx.scanString()
		case classPunct:
			if err := lx.m.Tick(); err != nil {
				return lx.fail(err)
			}
			line, col := lx.r.Pos()
			lx.tok = Token{Kind: TokenPunct, Text: string(w[i : i+1]), Line: line, Col: col - 1}
			return nil
		default:
			return lx.scanIdent(w[i:])
		}
	}
}

// fail clears lx.tok and returns err.
func (lx *Lexer) fail(err error) error {
	lx.tok = Token{}
	return err
}

// skipComment consumes a // or /* comment whose leading '/' has already
// been read; a lone '/' is invalid in every governed format's subset.
// An unterminated block comment at EOF is tolerated (historical parser
// behavior).
func (lx *Lexer) skipComment() error {
	w, err := lx.r.window()
	if err == io.EOF {
		line, col := lx.r.Pos()
		return Errf(line, col, "unexpected %q", "/")
	}
	if err != nil {
		return err
	}
	b := w[0]
	lx.r.consume(w[:1])
	switch b {
	case '/':
		for {
			w, err := lx.r.window()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if k := bytes.IndexByte(w, '\n'); k >= 0 {
				lx.r.consume(w[:k+1])
				return nil
			}
			lx.r.consume(w)
		}
	case '*':
		star := false
		for {
			w, err := lx.r.window()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			for k, c := range w {
				if star && c == '/' {
					lx.r.consume(w[:k+1])
					return nil
				}
				star = c == '*'
			}
			lx.r.consume(w)
		}
	default:
		line, col := lx.r.Pos()
		return Errf(line, col, "unexpected %q", "/"+string(b))
	}
}

// scanString reads a string whose opening quote has been consumed.
func (lx *Lexer) scanString() error {
	if err := lx.m.Tick(); err != nil {
		return lx.fail(err)
	}
	line, col := lx.r.Pos()
	col-- // position of the opening quote
	lx.buf = lx.buf[:0]
	for {
		w, err := lx.r.window()
		if err == io.EOF {
			// Unterminated string: surface what we have (the historical
			// parsers behaved the same way).
			lx.tok = Token{Kind: TokenString, Text: string(lx.buf), Line: line, Col: col}
			return nil
		}
		if err != nil {
			return lx.fail(err)
		}
		end := bytes.IndexByte(w, '"')
		text := w
		if end >= 0 {
			text = w[:end]
		}
		if room := lx.maxIdent - len(lx.buf); len(text) > room {
			// The byte past the budget is read, then refused.
			lx.r.consume(w[:room+1])
			return lx.fail(&PosError{Line: line, Col: col, Err: Budgetf("string exceeds the %d-byte identifier budget", lx.maxIdent)})
		}
		lx.buf = append(lx.buf, text...)
		if end >= 0 {
			lx.r.consume(w[:end+1])
			lx.tok = Token{Kind: TokenString, Text: string(lx.buf), Line: line, Col: col}
			return nil
		}
		lx.r.consume(w)
	}
}

// scanIdent reads an identifier whose first byte, w[0], has been
// consumed; w is the rest of the window it came in.
func (lx *Lexer) scanIdent(w []byte) error {
	if err := lx.m.Tick(); err != nil {
		return lx.fail(err)
	}
	line, col := lx.r.Pos()
	col-- // position of the first byte
	// The first byte is always taken; each later one must fit maxIdent.
	limit := max(lx.maxIdent, 1)
	j := lx.identEnd(w, 1)
	if j < len(w) || len(w) > limit {
		// The identifier ends inside this window: view it in place.
		if j > limit {
			return lx.identTooLong(w[1:limit+1], line, col)
		}
		lx.identLo = lx.r.i - 1
		lx.r.advance(j - 1)
		lx.identHi = lx.r.i
	} else {
		// It runs to the window's edge: gather it in buf across windows.
		lx.r.advance(len(w) - 1)
		lx.buf = append(lx.buf[:0], w...)
		for {
			w, err := lx.r.window()
			if err == io.EOF {
				break
			}
			if err != nil {
				return lx.fail(err)
			}
			j := lx.identEnd(w, 0)
			if room := limit - len(lx.buf); j > room {
				return lx.identTooLong(w[:room+1], line, col)
			}
			lx.r.advance(j)
			lx.buf = append(lx.buf, w[:j]...)
			if j < len(w) {
				break
			}
		}
		lx.identInBuf = true
	}
	text := ""
	if lx.strings {
		text = string(lx.Ident())
	}
	lx.tok = Token{Kind: TokenIdent, Text: text, Line: line, Col: col}
	return nil
}

// identEnd returns the index of the first byte of w at or after i that
// ends an identifier, or len(w).
func (lx *Lexer) identEnd(w []byte, i int) int {
	for i < len(w) && lx.class[w[i]] == classIdent {
		i++
	}
	return i
}

// identTooLong consumes read, which ends with the first byte past the
// identifier budget, and reports the overrun at the identifier's start.
func (lx *Lexer) identTooLong(read []byte, line, col int) error {
	lx.r.advance(len(read))
	return lx.fail(&PosError{Line: line, Col: col, Err: Budgetf("identifier exceeds the %d-byte budget", lx.maxIdent)})
}

// PosError attaches a source position to a low-level parse error as
// structured data, so diagnostics carry real line/col fields instead of
// positions baked into message strings.
type PosError struct {
	Line, Col int
	Err       error
}

func (e *PosError) Error() string { return fmt.Sprintf("line %d:%d: %v", e.Line, e.Col, e.Err) }
func (e *PosError) Unwrap() error { return e.Err }

// Errf builds a positioned syntax error.
func Errf(line, col int, format string, args ...any) error {
	return &PosError{Line: line, Col: col, Err: fmt.Errorf(format, args...)}
}
