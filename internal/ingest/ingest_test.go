package ingest

import (
	"context"
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWithDefaultsFillsZeroFields(t *testing.T) {
	l := Limits{}.WithDefaults()
	if l.Ctx == nil {
		t.Fatal("Ctx not defaulted")
	}
	if l.MaxBytes != DefaultMaxBytes || l.MaxTokens != DefaultMaxTokens ||
		l.MaxIdent != DefaultMaxIdent || l.MaxDepth != DefaultMaxDepth ||
		l.MaxGates != DefaultMaxGates || l.MaxNets != DefaultMaxNets ||
		l.MaxErrors != DefaultMaxErrors {
		t.Fatalf("defaults not applied: %+v", l)
	}
	// Explicit values survive.
	l = Limits{MaxBytes: 7, MaxGates: 3}.WithDefaults()
	if l.MaxBytes != 7 || l.MaxGates != 3 {
		t.Fatalf("explicit values clobbered: %+v", l)
	}
}

func TestReaderEnforcesByteBudget(t *testing.T) {
	lim := Limits{MaxBytes: 4}.WithDefaults()
	r := NewReader(strings.NewReader("abcdef"), lim)
	w, err := r.window()
	if err != nil || string(w) != "abcd" {
		t.Fatalf("window = %q, %v; want the 4 bytes inside the budget", w, err)
	}
	r.consume(w)
	_, err = r.window()
	if !IsBudgetSentinel(err) {
		t.Fatalf("want budget sentinel, got %v", err)
	}
	if r.n != 4 {
		t.Fatalf("read %d bytes, want 4", r.n)
	}
}

func TestReaderExactBudgetIsEOFNotError(t *testing.T) {
	lim := Limits{MaxBytes: 3}.WithDefaults()
	r := NewReader(strings.NewReader("abc"), lim)
	w, err := r.window()
	if err != nil || string(w) != "abc" {
		t.Fatalf("window = %q, %v", w, err)
	}
	r.consume(w)
	if _, err := r.window(); err != io.EOF {
		t.Fatalf("input exactly at budget must end with EOF, got %v", err)
	}
}

// TestReaderTracksPositionAndUnread checks line/column tracking across
// partial consumes, and that bytes a window showed but the caller did
// not consume come back in the next window (the Reader's only form of
// pushback).
func TestReaderTracksPositionAndUnread(t *testing.T) {
	r := NewReader(strings.NewReader("ab\ncd"), Default())
	take := func(n int, want string, wl, wc int) {
		t.Helper()
		w, err := r.window()
		if err != nil || len(w) < n || string(w[:n]) != want {
			t.Fatalf("window = %q, %v; want prefix %q", w, err, want)
		}
		r.consume(w[:n])
		if l, c := r.Pos(); l != wl || c != wc {
			t.Fatalf("after %q: pos %d:%d, want %d:%d", want, l, c, wl, wc)
		}
	}
	take(1, "a", 1, 2)
	take(2, "b\n", 2, 1)
	take(0, "", 2, 1) // looked at "cd", consumed none of it
	take(1, "c", 2, 2)
	take(1, "d", 2, 3)
	if _, err := r.window(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestMeterTokenBudget(t *testing.T) {
	m := NewMeter(Limits{MaxTokens: 5}.WithDefaults())
	for i := 0; i < 5; i++ {
		if err := m.Tick(); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	if err := m.Tick(); !IsBudgetSentinel(err) {
		t.Fatalf("want budget sentinel, got %v", err)
	}
}

// pollCountingCtx mirrors the montecarlo cancellation tests: it cancels
// after a fixed number of Err() polls so the meter's poll cadence is a
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

func TestMeterPollsCtxEveryInterval(t *testing.T) {
	ctx := &pollCountingCtx{Context: context.Background(), cancelAfter: 2}
	m := NewMeter(Limits{Ctx: ctx}.WithDefaults())
	var err error
	ticks := 0
	for ticks < 10_000 {
		ticks++
		if err = m.Tick(); err != nil {
			break
		}
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v after %d ticks", err, ticks)
	}
	// Cancellation fires on the 3rd poll = within 3 poll intervals.
	if ticks > 3*pollEvery {
		t.Fatalf("meter kept running after cancellation: %d ticks (pollEvery=%d)", ticks, pollEvery)
	}
	if got := ctx.polls.Load(); got > 3 {
		t.Fatalf("meter kept polling after cancellation: %d polls", got)
	}
}

func TestErrorBudgetClassification(t *testing.T) {
	e := &Error{Format: "verilog", Diags: []Diagnostic{
		{Check: CheckSyntax, Severity: SeverityError, Line: 3, Msg: "bad"},
	}}
	if e.Budget() || IsBudget(error(e)) {
		t.Fatal("syntax-only error misclassified as budget")
	}
	e.Diags = append(e.Diags, Diagnostic{Check: CheckBudget, Severity: SeverityError, Msg: "too big"})
	if !e.Budget() || !IsBudget(error(e)) {
		t.Fatal("budget diagnostic not detected")
	}
	if ie, ok := As(error(e)); !ok || ie != e {
		t.Fatal("As failed to unwrap")
	}
	if _, ok := As(errors.New("plain")); ok {
		t.Fatal("As matched a plain error")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Check: CheckSyntax, Severity: SeverityError, Line: 4, Col: 7, Msg: "unexpected ')'"}
	if got := d.String(); got != "line 4:7: error: syntax: unexpected ')'" {
		t.Fatalf("String = %q", got)
	}
	d = Diagnostic{Check: CheckBudget, Msg: "too big"}
	if got := d.String(); got != "error: budget: too big" {
		t.Fatalf("String = %q (empty severity must fail safe as error)", got)
	}
}

func TestCollectorBoundsErrors(t *testing.T) {
	lim := Limits{MaxErrors: 3}.WithDefaults()
	c := NewCollector("verilog", lim)
	if !c.Empty() || c.Err() != nil {
		t.Fatal("fresh collector not empty")
	}
	ok := true
	added := 0
	for i := 0; ok && i < 100; i++ {
		ok = c.Add(Diagnostic{Check: CheckSyntax, Msg: "x"})
		added++
	}
	if added != 3 {
		t.Fatalf("collector allowed %d adds, want 3", added)
	}
	if c.Add(Diagnostic{Check: CheckSyntax, Msg: "after close"}) {
		t.Fatal("closed collector accepted a diagnostic")
	}
	diags := c.diags
	// 3 real + 1 "too many errors" budget marker.
	if len(diags) != 4 || diags[3].Check != CheckBudget {
		t.Fatalf("diags = %+v", diags)
	}
	err := c.Err()
	ie, ok2 := As(err)
	if !ok2 || len(ie.Diags) != 4 || !ie.Budget() {
		t.Fatalf("Err = %v", err)
	}
	if !strings.Contains(err.Error(), "and 3 more diagnostics") {
		t.Fatalf("Error() = %q", err.Error())
	}
}

func TestUnlimitedNeverTrips(t *testing.T) {
	lim := Unlimited().WithDefaults()
	r := NewReader(strings.NewReader(strings.Repeat("x", 1<<17)), lim)
	for {
		w, err := r.window()
		if err != nil {
			if err != io.EOF {
				t.Fatalf("unlimited reader tripped: %v", err)
			}
			break
		}
		r.consume(w)
	}
	if r.n != 1<<17 {
		t.Fatalf("read %d bytes, want %d", r.n, 1<<17)
	}
}

func TestIsCtxErr(t *testing.T) {
	if !IsCtxErr(context.Canceled) || !IsCtxErr(context.DeadlineExceeded) {
		t.Fatal("ctx errors not recognized")
	}
	if IsCtxErr(errBudget) || IsCtxErr(nil) {
		t.Fatal("non-ctx error recognized as ctx")
	}
}
