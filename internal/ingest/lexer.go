package ingest

import (
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
// text is held in memory. It is shared by the Liberty and Verilog
// streaming parsers.
type Lexer struct {
	r        *Reader
	m        *Meter
	class    [256]byteClass
	maxIdent int
	buf      []byte // reused token-text scratch

	peeked bool
	tok    Token
	perr   error
}

// NewLexer builds a lexer over a governed Reader/Meter pair (lim must
// already have defaults applied, as the parsers' entry points ensure).
func NewLexer(r *Reader, m *Meter, lim Limits, spec LexSpec) *Lexer {
	return &Lexer{r: r, m: m, class: spec.classes(), maxIdent: lim.MaxIdent, buf: make([]byte, 0, 64)}
}

// Pos reports the 1-based position of the next unread byte.
func (lx *Lexer) Pos() (line, col int) { return lx.r.Pos() }

// Peek returns the next token without consuming it.
func (lx *Lexer) Peek() (Token, error) {
	if !lx.peeked {
		lx.tok, lx.perr = lx.scan()
		lx.peeked = true
	}
	return lx.tok, lx.perr
}

// Next consumes and returns the next token. EOF and errors are sticky
// until ClearErr.
func (lx *Lexer) Next() (Token, error) {
	t, err := lx.Peek()
	if t.Kind != TokenEOF && err == nil {
		lx.peeked = false
	}
	return t, err
}

// ClearErr drops a stored scan error so error recovery can resume
// scanning after the offending bytes. Budget and context errors must not
// be cleared — parsers check their class first (File does).
func (lx *Lexer) ClearErr() {
	lx.peeked = false
	lx.perr = nil
}

func (lx *Lexer) scan() (Token, error) {
	for {
		b, err := lx.r.ReadByte()
		if err == io.EOF {
			line, col := lx.r.Pos()
			return Token{Kind: TokenEOF, Line: line, Col: col}, nil
		}
		if err != nil {
			return Token{}, err
		}
		switch lx.class[b] {
		case classSpace:
			continue
		case classComment:
			if err := lx.skipComment(); err != nil {
				return Token{}, err
			}
		case classString:
			return lx.scanString()
		case classPunct:
			if err := lx.m.Tick(); err != nil {
				return Token{}, err
			}
			line, col := lx.r.Pos()
			return Token{Kind: TokenPunct, Text: string(b), Line: line, Col: col - 1}, nil
		default:
			return lx.scanIdent(b)
		}
	}
}

// skipComment consumes a // or /* comment whose leading '/' has already
// been read; a lone '/' is invalid in every governed format's subset.
// An unterminated block comment at EOF is tolerated (historical parser
// behavior).
func (lx *Lexer) skipComment() error {
	b, err := lx.r.ReadByte()
	if err == io.EOF {
		line, col := lx.r.Pos()
		return Errf(line, col, "unexpected %q", "/")
	}
	if err != nil {
		return err
	}
	switch b {
	case '/':
		for {
			b, err := lx.r.ReadByte()
			if err == io.EOF || (err == nil && b == '\n') {
				return nil
			}
			if err != nil {
				return err
			}
		}
	case '*':
		star := false
		for {
			b, err := lx.r.ReadByte()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if star && b == '/' {
				return nil
			}
			star = b == '*'
		}
	default:
		line, col := lx.r.Pos()
		return Errf(line, col, "unexpected %q", "/"+string(b))
	}
}

func (lx *Lexer) scanString() (Token, error) {
	if err := lx.m.Tick(); err != nil {
		return Token{}, err
	}
	line, col := lx.r.Pos()
	col-- // position of the opening quote
	lx.buf = lx.buf[:0]
	for {
		b, err := lx.r.ReadByte()
		if err == io.EOF {
			// Unterminated string: surface what we have (the historical
			// parsers behaved the same way).
			return Token{Kind: TokenString, Text: string(lx.buf), Line: line, Col: col}, nil
		}
		if err != nil {
			return Token{}, err
		}
		if b == '"' {
			return Token{Kind: TokenString, Text: string(lx.buf), Line: line, Col: col}, nil
		}
		if len(lx.buf) >= lx.maxIdent {
			return Token{}, &PosError{Line: line, Col: col, Err: Budgetf("string exceeds the %d-byte identifier budget", lx.maxIdent)}
		}
		lx.buf = append(lx.buf, b)
	}
}

func (lx *Lexer) scanIdent(first byte) (Token, error) {
	if err := lx.m.Tick(); err != nil {
		return Token{}, err
	}
	line, col := lx.r.Pos()
	col-- // position of the first byte
	lx.buf = lx.buf[:0]
	lx.buf = append(lx.buf, first)
	for {
		b, err := lx.r.ReadByte()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Token{}, err
		}
		if lx.class[b] != classIdent {
			lx.r.UnreadByte()
			break
		}
		if len(lx.buf) >= lx.maxIdent {
			return Token{}, &PosError{Line: line, Col: col, Err: Budgetf("identifier exceeds the %d-byte budget", lx.maxIdent)}
		}
		lx.buf = append(lx.buf, b)
	}
	return Token{Kind: TokenIdent, Text: string(lx.buf), Line: line, Col: col}, nil
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
