package ingest

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"
)

// oracleReader is the byte-at-a-time Reader the window lexer replaced,
// frozen as a test oracle: one ReadByte per byte through a bufio.Reader,
// the byte budget checked before each byte, one byte of pushback.
type oracleReader struct {
	br       *bufio.Reader
	maxBytes int64
	n        int64 // bytes surfaced to the parser
	line     int   // 1-based line of the NEXT byte
	col      int   // 1-based column of the NEXT byte
	prevLine int   // position before the last ReadByte, for UnreadByte
	prevCol  int
	unread   bool
}

func newOracleReader(r io.Reader, lim Limits) *oracleReader {
	return &oracleReader{
		br:       bufio.NewReaderSize(r, 64<<10),
		maxBytes: lim.MaxBytes,
		line:     1, col: 1,
	}
}

// ReadByte returns the next input byte, io.EOF at the end, or a
// budget-sentinel error once the input exceeds MaxBytes.
func (r *oracleReader) ReadByte() (byte, error) {
	if r.n >= r.maxBytes {
		// Distinguish "exactly at the budget and done" from "over": only
		// error if another byte actually exists.
		if _, err := r.br.Peek(1); err != nil {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("input exceeds the %d-byte budget: %w", r.maxBytes, errBudget)
	}
	b, err := r.br.ReadByte()
	if err != nil {
		return 0, err
	}
	r.n++
	r.prevLine, r.prevCol = r.line, r.col
	if b == '\n' {
		r.line++
		r.col = 1
	} else {
		r.col++
	}
	r.unread = true
	return b, nil
}

// UnreadByte pushes back the last byte read (one level only).
func (r *oracleReader) UnreadByte() error {
	if !r.unread {
		return errors.New("ingest: UnreadByte without prior ReadByte")
	}
	if err := r.br.UnreadByte(); err != nil {
		return err
	}
	r.n--
	r.line, r.col = r.prevLine, r.prevCol
	r.unread = false
	return nil
}

func (r *oracleReader) Pos() (line, col int) { return r.line, r.col }

// oracleLexer is the byte-at-a-time Lexer the window lexer replaced,
// frozen as a test oracle. The window lexer must produce the same
// tokens, positions and errors on every input and budget.
type oracleLexer struct {
	r        *oracleReader
	m        *Meter
	class    [256]byteClass
	maxIdent int
	buf      []byte

	peeked bool
	tok    Token
	perr   error
}

func newOracleLexer(r *oracleReader, m *Meter, lim Limits, spec LexSpec) *oracleLexer {
	return &oracleLexer{r: r, m: m, class: spec.classes(), maxIdent: lim.MaxIdent, buf: make([]byte, 0, 64)}
}

func (lx *oracleLexer) Pos() (line, col int) { return lx.r.Pos() }

func (lx *oracleLexer) Peek() (Token, error) {
	if !lx.peeked {
		lx.tok, lx.perr = lx.scan()
		lx.peeked = true
	}
	return lx.tok, lx.perr
}

func (lx *oracleLexer) Next() (Token, error) {
	t, err := lx.Peek()
	if t.Kind != TokenEOF && err == nil {
		lx.peeked = false
	}
	return t, err
}

func (lx *oracleLexer) ClearErr() {
	lx.peeked = false
	lx.perr = nil
}

func (lx *oracleLexer) scan() (Token, error) {
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

func (lx *oracleLexer) skipComment() error {
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

func (lx *oracleLexer) scanString() (Token, error) {
	if err := lx.m.Tick(); err != nil {
		return Token{}, err
	}
	line, col := lx.r.Pos()
	col--
	lx.buf = lx.buf[:0]
	for {
		b, err := lx.r.ReadByte()
		if err == io.EOF {
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

func (lx *oracleLexer) scanIdent(first byte) (Token, error) {
	if err := lx.m.Tick(); err != nil {
		return Token{}, err
	}
	line, col := lx.r.Pos()
	col--
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

// smallReads serves its bytes 1 to 7 at a time, cycling from phase, so
// the Lexer's windows end at every kind of token boundary.
type smallReads struct {
	b     []byte
	phase int
}

func (r *smallReads) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(r.b), 1+r.phase%7)
	r.phase++
	copy(p, r.b[:n])
	r.b = r.b[n:]
	return n, nil
}

// lexStep is one Next call as a lexer saw it: the token (identifier
// text read through Ident on a view lexer), the error text and budget
// class, and the position after the call.
type lexStep struct {
	kind            TokenKind
	text            string
	line, col       int
	err             string
	budget          bool
	nextLine, nextC int
}

// lexAll drives a lexer the way the parsers do: Next until end of
// input or a budget error, clearing syntax errors to resynchronize.
func lexAll(next func() (Token, error), text func(Token) string, pos func() (int, int), clear func()) []lexStep {
	var steps []lexStep
	for i := 0; i < 1<<16; i++ {
		tok, err := next()
		s := lexStep{kind: tok.Kind, text: text(tok), line: tok.Line, col: tok.Col}
		if err != nil {
			s = lexStep{err: err.Error(), budget: IsBudgetSentinel(err)}
		}
		s.nextLine, s.nextC = pos()
		steps = append(steps, s)
		if err != nil && (s.budget || IsCtxErr(err)) || err == nil && tok.Kind == TokenEOF {
			break
		}
		if err != nil {
			clear()
		}
	}
	return steps
}

// FuzzLexerMatchesOracle checks the window Lexer against the frozen
// byte-at-a-time oracle: the same kinds, text, positions and errors
// under the Verilog and Liberty specs, for both the string and the view
// form of the Lexer, with small byte, identifier and token budgets, fed
// whole and 1-7 bytes per Read.
func FuzzLexerMatchesOracle(f *testing.F) {
	f.Add([]byte("module m (a, y);\n input a; // c\n not g0 (y, a);\nendmodule\n"), uint16(0), uint8(0), uint16(0), uint8(0))
	f.Add([]byte("cell (INV_X1) {\r\n  area : 1.25 ;\r\n  values(\"1, 2\", \\\n \"3\");\r\n}\n"), uint16(0), uint8(4), uint16(0), uint8(3))
	f.Add([]byte("a /b /* x ** / *** */ c // d\n e /"), uint16(9), uint8(2), uint16(3), uint8(1))
	f.Add([]byte("\"unterminated string with a long body"), uint16(20), uint8(6), uint16(0), uint8(5))
	f.Add([]byte("longidentifier_abcdefghijklmnopqrstuvwxyz(x)"), uint16(30), uint8(10), uint16(2), uint8(2))
	f.Add([]byte("x\xff/\xff\x00y \"\xff\" ;;"), uint16(0), uint8(1), uint16(0), uint8(6))
	specs := []LexSpec{verilogSpec, libertySpec}
	f.Fuzz(func(t *testing.T, data []byte, maxBytes uint16, maxIdent uint8, maxTokens uint16, phase uint8) {
		lim := Limits{MaxBytes: int64(maxBytes), MaxIdent: int(maxIdent), MaxTokens: int64(maxTokens)}.WithDefaults()
		sources := []func() io.Reader{
			func() io.Reader { return bytes.NewReader(data) },
			func() io.Reader { return &smallReads{b: data, phase: int(phase)} },
		}
		for si, spec := range specs {
			for ri, src := range sources {
				ol := newOracleLexer(newOracleReader(src(), lim), NewMeter(lim), lim, spec)
				want := lexAll(ol.Next, func(t Token) string { return t.Text }, ol.Pos, ol.ClearErr)
				for view := range 2 {
					newLx := NewLexer
					if view == 1 {
						newLx = NewViewLexer
					}
					lx := newLx(NewReader(src(), lim), NewMeter(lim), lim, spec)
					text := func(t Token) string {
						if t.Kind == TokenIdent && view == 1 {
							if t.Text != "" {
								return "view lexer gave an identifier Text"
							}
							return string(lx.Ident())
						}
						return t.Text
					}
					got := lexAll(lx.Next, text, lx.Pos, lx.ClearErr)
					if !slices.Equal(got, want) {
						t.Fatalf("spec %d reader %d view %v: lexers differ on %q under %+v\ngot  %+v\nwant %+v",
							si, ri, view == 1, data, lim, got, want)
					}
				}
			}
		}
	})
}

// The surface syntaxes of the two formats, as internal/verilog and
// internal/liberty define them.
var (
	verilogSpec = LexSpec{Puncts: "();", Skip: ","}
	libertySpec = LexSpec{Puncts: "(){}:;", Skip: ",\\"}
)
