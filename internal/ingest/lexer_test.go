package ingest

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// newTestLexer builds a lexer the way the format parsers do: a governed
// Reader/Meter pair over lim with defaults applied, and a Liberty-like
// surface syntax.
func newTestLexer(input string, lim Limits) *Lexer {
	lim = lim.WithDefaults()
	r := NewReader(strings.NewReader(input), lim)
	m := NewMeter(lim)
	return NewLexer(r, m, lim, LexSpec{Puncts: "(){}:;", Skip: ",\\"})
}

func mustNext(t *testing.T, lx *Lexer) Token {
	t.Helper()
	tok, err := lx.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	return tok
}

func TestLexerTokenKindsAndPositions(t *testing.T) {
	lx := newTestLexer("cell (INV_X1) {\n  area : 1.25 ;\n}\n", Limits{})
	want := []Token{
		{Kind: TokenIdent, Text: "cell", Line: 1, Col: 1},
		{Kind: TokenPunct, Text: "(", Line: 1, Col: 6},
		{Kind: TokenIdent, Text: "INV_X1", Line: 1, Col: 7},
		{Kind: TokenPunct, Text: ")", Line: 1, Col: 13},
		{Kind: TokenPunct, Text: "{", Line: 1, Col: 15},
		{Kind: TokenIdent, Text: "area", Line: 2, Col: 3},
		{Kind: TokenPunct, Text: ":", Line: 2, Col: 8},
		{Kind: TokenIdent, Text: "1.25", Line: 2, Col: 10},
		{Kind: TokenPunct, Text: ";", Line: 2, Col: 15},
		{Kind: TokenPunct, Text: "}", Line: 3, Col: 1},
	}
	for i, w := range want {
		if got := mustNext(t, lx); got != w {
			t.Fatalf("token %d = %+v, want %+v", i, got, w)
		}
	}
	eof := mustNext(t, lx)
	if eof.Kind != TokenEOF {
		t.Fatalf("want EOF, got %+v", eof)
	}
	// EOF is sticky: asking again keeps returning it.
	if again := mustNext(t, lx); again.Kind != TokenEOF {
		t.Fatalf("EOF not sticky: %+v", again)
	}
}

func TestLexerSkipBytesAndStrings(t *testing.T) {
	// ',' and '\' are Skip bytes in the test spec; quoted strings keep
	// their position at the opening quote and strip the quotes.
	lx := newTestLexer("a, b \\\n \"hello world\"", Limits{})
	if tok := mustNext(t, lx); tok.Text != "a" {
		t.Fatalf("tok = %+v", tok)
	}
	if tok := mustNext(t, lx); tok.Text != "b" {
		t.Fatalf("tok = %+v", tok)
	}
	tok := mustNext(t, lx)
	if tok.Kind != TokenString || tok.Text != "hello world" || tok.Line != 2 || tok.Col != 2 {
		t.Fatalf("string tok = %+v", tok)
	}
}

func TestLexerUnterminatedStringSurfacesPartialText(t *testing.T) {
	lx := newTestLexer(`name "half`, Limits{})
	mustNext(t, lx)
	tok := mustNext(t, lx)
	if tok.Kind != TokenString || tok.Text != "half" {
		t.Fatalf("unterminated string = %+v", tok)
	}
}

func TestLexerComments(t *testing.T) {
	lx := newTestLexer("a // to end of line\nb /* span\nlines */ c /* open", Limits{})
	for _, want := range []string{"a", "b", "c"} {
		if tok := mustNext(t, lx); tok.Text != want {
			t.Fatalf("tok = %+v, want %q", tok, want)
		}
	}
	// The unterminated block comment at EOF is tolerated.
	if tok := mustNext(t, lx); tok.Kind != TokenEOF {
		t.Fatalf("want EOF after open block comment, got %+v", tok)
	}
}

func TestLexerLoneSlashIsPositionedSyntaxError(t *testing.T) {
	for _, input := range []string{"a /b", "a /"} {
		lx := newTestLexer(input, Limits{})
		mustNext(t, lx)
		_, err := lx.Next()
		var pe *PosError
		if !errors.As(err, &pe) {
			t.Fatalf("input %q: want PosError, got %v", input, err)
		}
		if pe.Line != 1 || IsBudgetSentinel(err) {
			t.Fatalf("input %q: bad classification: %+v", input, pe)
		}
		// Errors are sticky until cleared; after ClearErr scanning resumes
		// past the offending bytes (here: at EOF).
		if _, err2 := lx.Next(); err2 == nil {
			t.Fatalf("input %q: error not sticky", input)
		}
		lx.ClearErr()
		if tok, err := lx.Next(); err != nil || tok.Kind != TokenEOF {
			t.Fatalf("input %q: after ClearErr: %+v, %v", input, tok, err)
		}
	}
}

func TestLexerPeekDoesNotConsume(t *testing.T) {
	lx := newTestLexer("x y", Limits{})
	p1, err := lx.Peek()
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := lx.Peek()
	if p1 != p2 || p1.Text != "x" {
		t.Fatalf("Peek unstable: %+v vs %+v", p1, p2)
	}
	if got := mustNext(t, lx); got != p1 {
		t.Fatalf("Next after Peek = %+v, want %+v", got, p1)
	}
	if got := mustNext(t, lx); got.Text != "y" {
		t.Fatalf("second token = %+v", got)
	}
}

func TestLexerIdentBudget(t *testing.T) {
	lim := Limits{MaxIdent: 8}
	for _, input := range []string{
		strings.Repeat("w", 9),             // bare identifier
		`"` + strings.Repeat("w", 9) + `"`, // quoted string
	} {
		lx := newTestLexer(input, lim)
		_, err := lx.Next()
		if !IsBudgetSentinel(err) {
			t.Fatalf("input %q: want budget sentinel, got %v", input, err)
		}
		var pe *PosError
		if !errors.As(err, &pe) || pe.Line != 1 {
			t.Fatalf("input %q: budget error lacks position: %v", input, err)
		}
	}
	// Exactly at the budget is fine.
	lx := newTestLexer(strings.Repeat("w", 8), lim)
	if tok := mustNext(t, lx); len(tok.Text) != 8 {
		t.Fatalf("tok = %+v", tok)
	}
}

func TestLexerTokenBudgetAndByteBudget(t *testing.T) {
	lx := newTestLexer("a b c d e", Limits{MaxTokens: 3})
	for i := 0; i < 3; i++ {
		mustNext(t, lx)
	}
	if _, err := lx.Next(); !IsBudgetSentinel(err) {
		t.Fatalf("token budget not enforced: %v", err)
	}

	lx = newTestLexer("abcdefgh", Limits{MaxBytes: 4})
	if _, err := lx.Next(); !IsBudgetSentinel(err) {
		t.Fatalf("byte budget not enforced: %v", err)
	}
}

func TestLexerCancelledContextSurfacesCtxError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// pollEvery+1 tokens guarantees at least one poll.
	input := strings.Repeat("x ", pollEvery+1)
	lx := newTestLexer(input, Limits{Ctx: ctx})
	var err error
	for i := 0; i <= pollEvery+1; i++ {
		if _, err = lx.Next(); err != nil {
			break
		}
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if IsBudgetSentinel(err) {
		t.Fatal("ctx error misclassified as budget")
	}
}

func TestTokenString(t *testing.T) {
	if got := (Token{Kind: TokenEOF}).String(); got != "end of file" {
		t.Fatalf("EOF String = %q", got)
	}
	if got := (Token{Kind: TokenIdent, Text: "x"}).String(); got != `"x"` {
		t.Fatalf("ident String = %q", got)
	}
}

func TestPosErrorUnwrapAndErrf(t *testing.T) {
	base := errors.New("boom")
	pe := &PosError{Line: 3, Col: 9, Err: base}
	if !errors.Is(pe, base) {
		t.Fatal("PosError does not unwrap")
	}
	if got := pe.Error(); got != "line 3:9: boom" {
		t.Fatalf("Error = %q", got)
	}
	err := Errf(2, 4, "unexpected %q", ")")
	var pe2 *PosError
	if !errors.As(err, &pe2) || pe2.Line != 2 || pe2.Col != 4 {
		t.Fatalf("Errf = %v", err)
	}
}

func TestCollectorFile(t *testing.T) {
	lim := Limits{MaxErrors: 5}.WithDefaults()

	// Positioned syntax error: recoverable, position from the PosError.
	c := NewCollector("liberty", lim)
	rec, fatal := c.File(Errf(7, 3, "unexpected %q", "}"), 1, 1)
	if !rec || fatal != nil {
		t.Fatalf("syntax error not recoverable: %v", fatal)
	}
	if d := c.diags[0]; d.Check != CheckSyntax || d.Line != 7 || d.Col != 3 {
		t.Fatalf("diag = %+v", d)
	}

	// Unpositioned error: falls back to the supplied line/col.
	rec, _ = c.File(errors.New("bare"), 9, 2)
	if !rec {
		t.Fatal("bare error not recoverable")
	}
	if d := c.diags[1]; d.Line != 9 || d.Col != 2 {
		t.Fatalf("fallback position diag = %+v", d)
	}

	// Budget trip: fatal, classified CheckBudget, returns the collected Error.
	rec, fatal = c.File(Budgetf("identifier exceeds the %d-byte budget", 4), 1, 1)
	if rec || !IsBudget(fatal) {
		t.Fatalf("budget trip: rec=%v fatal=%v", rec, fatal)
	}

	// Context cancellation propagates unwrapped, uncollected.
	c2 := NewCollector("verilog", lim)
	rec, fatal = c2.File(context.Canceled, 1, 1)
	if rec || !errors.Is(fatal, context.Canceled) || !c2.Empty() {
		t.Fatalf("ctx error mishandled: rec=%v fatal=%v diags=%v", rec, fatal, c2.diags)
	}

	// Exhausting the error budget turns recoverable errors fatal.
	c3 := NewCollector("verilog", Limits{MaxErrors: 2}.WithDefaults())
	c3.File(errors.New("one"), 1, 1)
	rec, fatal = c3.File(errors.New("two"), 2, 1)
	if rec || fatal == nil {
		t.Fatalf("exhausted collector still recoverable: %v", fatal)
	}
	ie, ok := As(fatal)
	if !ok || !ie.Budget() {
		t.Fatalf("exhaustion not budget-classified: %v", fatal)
	}
}
