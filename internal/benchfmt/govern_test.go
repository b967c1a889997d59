package benchfmt

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ingest"
)

// pollCountingCtx mirrors the cancellation tests of the streaming
// parsers (and montecarlo): it counts Err polls and starts reporting
// Canceled after a fixed number, so the test can assert the parse
// stops within one poll interval.
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

// chainLines emits a long single-fanin buffer chain in .bench syntax.
func chainLines(n int) string {
	var b strings.Builder
	b.WriteString("INPUT(a)\n")
	prev := "a"
	for i := 0; i < n; i++ {
		cur := fmt.Sprintf("g%d", i)
		fmt.Fprintf(&b, "%s = BUFF(%s)\n", cur, prev)
		prev = cur
	}
	fmt.Fprintf(&b, "OUTPUT(%s)\n", prev)
	return b.String()
}

func TestParseCtxHonorsCancellationMidParse(t *testing.T) {
	src := chainLines(10 * ctxPollLines)
	ctx := &pollCountingCtx{Context: context.Background(), cancelAfter: 2}
	_, err := ParseNetlistOpts(strings.NewReader(src), "chain", ingest.Limits{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if got := ctx.polls.Load(); got > 4 {
		t.Fatalf("parse kept polling after cancellation: %d polls", got)
	}
}

// countingReader counts how many bytes the scanner actually pulled.
type countingReader struct {
	r      io.Reader
	served int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.served += int64(n)
	return n, err
}

func TestParseCtxAlreadyCancelledDoesNoWork(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cr := &countingReader{r: strings.NewReader(chainLines(4 * ctxPollLines))}
	_, err := ParseNetlistOpts(cr, "chain", ingest.Limits{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if cr.served != 0 {
		t.Fatalf("cancelled parse still read %d bytes", cr.served)
	}
}

func TestParseCtxNilContextParses(t *testing.T) {
	nl, err := ParseNetlistOpts(strings.NewReader(chainLines(8)), "chain", ingest.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := nl.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.NumLogicGates() != 8 {
		t.Fatalf("gates = %d, want 8", c.NumLogicGates())
	}
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
}

// TestParseNetlistOptsBudgets: every budget of the envelope stops the
// .bench scan with a budget-class diagnostic, and an input exactly at
// a budget still parses.
func TestParseNetlistOptsBudgets(t *testing.T) {
	src := chainLines(8) // 10 lines, 8 gates, 18 names
	long := "INPUT(" + strings.Repeat("n", 100) + ")\n"
	for _, tc := range []struct {
		name, src string
		lim       ingest.Limits
	}{
		{"bytes", src, ingest.Limits{MaxBytes: int64(len(src)) - 1}},
		{"tokens", src, ingest.Limits{MaxTokens: 20}},
		{"gates", src, ingest.Limits{MaxGates: 7}},
		{"nets", src, ingest.Limits{MaxNets: 17}},
		{"ident", long, ingest.Limits{MaxIdent: 99}},
		{"line", strings.Repeat("x", maxLine+1), ingest.Limits{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseNetlistOpts(strings.NewReader(tc.src), "chain", tc.lim)
			if !ingest.IsBudget(err) {
				t.Fatalf("want a budget error, got %v", err)
			}
		})
	}
	for _, lim := range []ingest.Limits{
		{MaxBytes: int64(len(src))}, {MaxTokens: 26}, {MaxGates: 8}, {MaxNets: 18},
	} {
		if _, err := ParseNetlistOpts(strings.NewReader(src), "chain", lim); err != nil {
			t.Fatalf("input at the budget %+v rejected: %v", lim, err)
		}
	}
}

// TestParseNetlistOptsCollectsSyntaxErrors: bad lines are skipped and
// reported together with their line numbers, and MaxErrors turns a
// long list into a budget failure.
func TestParseNetlistOptsCollectsSyntaxErrors(t *testing.T) {
	src := "INPUT(a)\nbogus\nOUTPUT(y)\ny = FROB(a)\nz = DFF(a)\n"
	_, err := ParseNetlistOpts(strings.NewReader(src), "bad", ingest.Limits{})
	ie, ok := ingest.As(err)
	if !ok || ie.Budget() {
		t.Fatalf("want a syntax *ingest.Error, got %v", err)
	}
	var lines []int
	for _, d := range ie.Diags {
		if d.Check != ingest.CheckSyntax {
			t.Fatalf("diagnostic %+v is not syntax-class", d)
		}
		lines = append(lines, d.Line)
	}
	if fmt.Sprint(lines) != "[2 4 5]" {
		t.Fatalf("diagnostic lines = %v, want [2 4 5]", lines)
	}
	_, err = ParseNetlistOpts(strings.NewReader(src), "bad", ingest.Limits{MaxErrors: 2})
	if !ingest.IsBudget(err) {
		t.Fatalf("MaxErrors 2: want a budget error, got %v", err)
	}
}
