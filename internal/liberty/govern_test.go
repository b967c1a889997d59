package liberty

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cells"
	"repro/internal/ingest"
)

// synthText streams an endless syntactically-valid Liberty prefix so the
// byte budget — not a syntax error — is what stops the parse. It counts
// how many bytes the parser actually pulled.
type synthText struct {
	header  string
	filler  string
	total   int64 // bytes to offer before EOF
	served  int64
	emitted int64
}

func (s *synthText) Read(p []byte) (int, error) {
	if s.emitted >= s.total {
		return 0, io.EOF
	}
	n := 0
	for n < len(p) && s.emitted < s.total {
		var src string
		if s.emitted < int64(len(s.header)) {
			src = s.header[s.emitted:]
		} else {
			src = s.filler[(s.emitted-int64(len(s.header)))%int64(len(s.filler)):]
		}
		c := copy(p[n:], src)
		n += c
		s.emitted += int64(c)
	}
	s.served += int64(n)
	return n, nil
}

// TestParseRejectsHugeInputAtByteBudget is the io.ReadAll regression
// test: a 100MB synthetic library must be rejected at the byte budget
// after reading only budget + O(read-ahead) bytes — the input is never
// materialized.
func TestParseRejectsHugeInputAtByteBudget(t *testing.T) {
	const budget = 1 << 20
	src := &synthText{
		header: "library (huge) {\n",
		filler: "  some_attribute : 1;\n",
		total:  100 << 20,
	}
	_, err := ParseOpts(src, ingest.Limits{MaxBytes: budget})
	if !ingest.IsBudget(err) {
		t.Fatalf("want budget-class ingest error, got %v", err)
	}
	// bufio read-ahead inside ingest.Reader is 64KiB; anything near the
	// budget proves streaming, anything near 100MB would prove buffering.
	if slack := src.served - budget; slack < 0 || slack > 256<<10 {
		t.Fatalf("parser pulled %d bytes for a %d-byte budget", src.served, budget)
	}
}

// pollCountingCtx mirrors the montecarlo cancellation tests: it cancels
// after a fixed number of Err() polls so the parse's poll cadence is a
// deterministic assertion.
type pollCountingCtx struct {
	context.Context
	polls       atomic.Int64
	cancelAfter int64
}

func (c *pollCountingCtx) Err() error {
	if c.polls.Add(1) > c.cancelAfter {
		return context.Canceled
	}
	return nil
}

func (c *pollCountingCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

func TestParseHonorsCancellationMidParse(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, cells.Default90nm()); err != nil {
		t.Fatal(err)
	}
	ctx := &pollCountingCtx{Context: context.Background(), cancelAfter: 2}
	_, err := ParseOpts(bytes.NewReader(buf.Bytes()), ingest.Limits{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if got := ctx.polls.Load(); got > 4 {
		t.Fatalf("parse kept polling after cancellation: %d polls", got)
	}
}

func TestParseAlreadyCancelledDoesNoWork(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := &synthText{header: "library (l) {\n", filler: "a : 1;\n", total: 1 << 30}
	_, err := ParseOpts(src, ingest.Limits{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if src.served != 0 {
		t.Fatalf("cancelled parse still read %d bytes", src.served)
	}
}

// TestParseRecoversFromMalformedCells pins bounded multi-error recovery:
// one parse reports several independent defects instead of bailing at
// the first, and the diagnostics carry class and position.
func TestParseRecoversFromMalformedCells(t *testing.T) {
	src := `library (broken) {
  cell (WEIRD) { area : 1; }
  cell (ALSOWEIRD) { area : 2; }
  cell (INV_X1) {
    area : 1; drive_strength : 1;
    pin (A) { direction : input; capacitance : 2; }
    pin (Y) {
      direction : output;
      timing () {
        cell_rise (t) { index_1 ("0, 10"); index_2 ("0, 100"); values ("10, 20", "30, 40"); }
        rise_transition (t) { index_1 ("0, 10"); index_2 ("0, 100"); values ("1, 2", "3, 4"); }
      }
    }
  }
}`
	_, err := Parse(strings.NewReader(src))
	ie, ok := ingest.As(err)
	if !ok {
		t.Fatalf("want *ingest.Error, got %v", err)
	}
	if len(ie.Diags) != 2 {
		t.Fatalf("want 2 diagnostics (both bad cells), got %d: %v", len(ie.Diags), ie.Diags)
	}
	for _, d := range ie.Diags {
		if d.Check != ingest.CheckSemantic || d.Line == 0 {
			t.Fatalf("diagnostic missing class/position: %+v", d)
		}
	}
	if ie.Budget() {
		t.Fatal("malformed input misclassified as budget")
	}
}

// TestParseErrorBudgetBounds pins the give-up path: a file with many
// defects stops at MaxErrors and appends the budget-class marker.
func TestParseErrorBudgetBounds(t *testing.T) {
	var b strings.Builder
	b.WriteString("library (noisy) {\n")
	for i := 0; i < 50; i++ {
		b.WriteString("  cell (WEIRD) { area : 1; }\n")
	}
	b.WriteString("}\n")
	_, err := ParseOpts(strings.NewReader(b.String()), ingest.Limits{MaxErrors: 5})
	ie, ok := ingest.As(err)
	if !ok {
		t.Fatalf("want *ingest.Error, got %v", err)
	}
	if len(ie.Diags) != 6 {
		t.Fatalf("want 5 diags + giving-up marker, got %d", len(ie.Diags))
	}
	if last := ie.Diags[len(ie.Diags)-1]; last.Check != ingest.CheckBudget {
		t.Fatalf("last diagnostic is %+v, want budget-class marker", last)
	}
}

// TestParseIdentBudgetIsBudgetClass pins the classification of over-long
// identifiers: budget, not syntax, so servers answer 413.
func TestParseIdentBudgetIsBudgetClass(t *testing.T) {
	src := "library (" + strings.Repeat("x", 10000) + ") { }"
	_, err := ParseOpts(strings.NewReader(src), ingest.Limits{MaxIdent: 64})
	if !ingest.IsBudget(err) {
		t.Fatalf("want budget-class error, got %v", err)
	}
}

// TestParseDepthBudget pins runaway nesting rejection.
func TestParseDepthBudget(t *testing.T) {
	var b strings.Builder
	b.WriteString("library (deep) { cell (INV_X1) {")
	for i := 0; i < 100; i++ {
		b.WriteString(" pin (A) {")
	}
	_, err := ParseOpts(strings.NewReader(b.String()), ingest.Limits{MaxDepth: 8})
	if !ingest.IsBudget(err) {
		t.Fatalf("want budget-class error, got %v", err)
	}
}

// TestParseSkipsUnknownGroups pins forward compatibility: real Liberty
// files carry groups our subset does not model; they must be skipped,
// not fatal.
func TestParseSkipsUnknownGroups(t *testing.T) {
	src := `library (fwd) {
  operating_conditions (typical) { process : 1; temperature : 25; }
  lu_table_template (tmpl) { variable_1 : input_net_transition; index_1 ("1, 2"); }
  cell (INV_X1) {
    area : 1; drive_strength : 1;
    pin (A) { direction : input; capacitance : 2; }
    pin (Y) {
      direction : output;
      timing () {
        cell_rise (t) { index_1 ("0, 10"); index_2 ("0, 100"); values ("10, 20", "30, 40"); }
        rise_transition (t) { index_1 ("0, 10"); index_2 ("0, 100"); values ("1, 2", "3, 4"); }
      }
    }
  }
}`
	lib, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if lib.NumSizes(cells.INV) != 1 {
		t.Fatalf("cell lost while skipping unknown groups")
	}
}
