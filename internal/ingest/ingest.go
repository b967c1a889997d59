// Package ingest is the resource-governance layer shared by every
// format front door (internal/liberty, internal/verilog and the .bench
// line reader benchfmt.ParseNetlistOpts). A netlist or library upload
// is the last untrusted input boundary of the system: a single hostile
// — or merely enormous — file must not be able to drive a parser to
// unbounded allocation, pathological parse times, or an unkillable
// load. The package provides:
//
//   - Limits: hard budgets for input bytes, token count, identifier
//     length, nesting depth, gate/net element counts and a bounded
//     recoverable-error list, plus a context polled at token granularity
//     so cancellation and deadlines bite mid-parse.
//   - Reader: a counting, budget-enforcing byte source with line/column
//     tracking, the only way the token-streaming parsers touch their
//     input. It offers the input one buffered window at a time, never
//     past MaxBytes, so no parser ever materializes the full text (the
//     line-based .bench reader enforces MaxBytes on its own bounded line
//     scan).
//   - Lexer: the tokenizer over a Reader the Liberty and Verilog parsers
//     share. It scans each window in place, charging MaxBytes by bytes
//     consumed and the Meter per token, with the positions, budgets and
//     errors of a byte-at-a-time scan.
//   - Meter: the per-token budget/cancellation turnstile.
//   - Diagnostic / Error: the machine-readable failure shape, matching
//     internal/circuitlint's diagnostics (check name, severity, line,
//     column, message) with a dedicated budget-exceeded class so servers
//     can map "too big" (HTTP 413) apart from "malformed" (HTTP 400).
package ingest

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Default budget values. They are sized for realistic multi-million-gate
// industrial inputs while still bounding a hostile one: a parse can never
// read more than MaxBytes, allocate more than O(MaxGates + MaxNets)
// circuit elements, or run longer than the context allows.
const (
	DefaultMaxBytes  = 256 << 20 // 256 MiB of raw input
	DefaultMaxTokens = 64 << 20  // 64M lexical tokens
	DefaultMaxIdent  = 4096      // longest identifier or quoted string
	DefaultMaxDepth  = 64        // deepest group/paren nesting
	DefaultMaxGates  = 4 << 20   // gate/cell definitions
	DefaultMaxNets   = 16 << 20  // net/port/pin references declared
	DefaultMaxErrors = 20        // recoverable diagnostics before giving up
)

// pollEvery is how many tokens pass between context polls: small enough
// that cancellation lands within microseconds of real parse work, large
// enough that ctx.Err's mutex never shows up in a profile. The
// poll-counting cancellation tests in the parser packages assert a parse
// stops within one interval of cancellation.
const pollEvery = 32

// Limits is the budget envelope a streaming parse runs under. The zero
// value of any field selects its package default; use Unlimited for
// trusted in-process inputs (generated text, round-trip tests).
type Limits struct {
	// Ctx is polled every pollEvery tokens; nil means context.Background.
	// Cancellation surfaces as the ctx error (context.Canceled /
	// context.DeadlineExceeded), not as a budget diagnostic, so callers
	// can tell "caller gave up" from "input too big".
	Ctx context.Context
	// MaxBytes bounds the raw input size; the Reader stops the parse at
	// the first byte beyond it without buffering what came before.
	MaxBytes int64
	// MaxTokens bounds the lexical token count (a proxy for parse time
	// that no comment/whitespace trick can evade).
	MaxTokens int64
	// MaxIdent bounds one identifier or quoted string, in bytes.
	MaxIdent int
	// MaxDepth bounds grouping depth (Liberty groups).
	MaxDepth int
	// MaxGates bounds gate/cell definitions; MaxNets bounds declared
	// nets, ports and pin references.
	MaxGates, MaxNets int
	// MaxErrors bounds the recoverable-diagnostic list: parsers recover
	// from malformed constructs and keep reporting until this many
	// errors, then abort with a final "too many errors" diagnostic.
	MaxErrors int
}

// Default returns the production budget envelope.
func Default() Limits { return Limits{}.WithDefaults() }

// Unlimited returns an envelope that never trips: for trusted in-process
// text (generator output, round-trips) where governance is pure
// overhead. The context still applies if set.
func Unlimited() Limits {
	const big = int(^uint(0) >> 1)
	return Limits{
		MaxBytes:  int64(^uint64(0) >> 1),
		MaxTokens: int64(^uint64(0) >> 1),
		MaxIdent:  big, MaxDepth: big,
		MaxGates: big, MaxNets: big, MaxErrors: DefaultMaxErrors,
	}
}

// WithDefaults fills zero fields with the package defaults; negative
// values are treated as zero (the caller-facing validation lives in
// internal/cliutil, which rejects negatives by flag name).
func (l Limits) WithDefaults() Limits {
	if l.Ctx == nil {
		l.Ctx = context.Background()
	}
	if l.MaxBytes <= 0 {
		l.MaxBytes = DefaultMaxBytes
	}
	if l.MaxTokens <= 0 {
		l.MaxTokens = DefaultMaxTokens
	}
	if l.MaxIdent <= 0 {
		l.MaxIdent = DefaultMaxIdent
	}
	if l.MaxDepth <= 0 {
		l.MaxDepth = DefaultMaxDepth
	}
	if l.MaxGates <= 0 {
		l.MaxGates = DefaultMaxGates
	}
	if l.MaxNets <= 0 {
		l.MaxNets = DefaultMaxNets
	}
	if l.MaxErrors <= 0 {
		l.MaxErrors = DefaultMaxErrors
	}
	return l
}

// Diagnostic check classes. CheckBudget is the machine-readable marker
// for "the input exceeded a resource budget" — sstad maps it to HTTP 413
// where every other class is a 400.
const (
	CheckBudget   = "budget"   // a Limits budget was exceeded
	CheckSyntax   = "syntax"   // the text could not be parsed
	CheckSemantic = "semantic" // parsed, but structurally wrong
)

// Severity levels, mirroring internal/circuitlint.
const (
	SeverityError   = "error"
	SeverityWarning = "warning"
)

// Diagnostic is one machine-readable parse finding. It matches the
// shape of circuitlint.Diagnostic (and its wire mirror client.Diagnostic)
// with the addition of a column, which a streaming lexer knows exactly.
type Diagnostic struct {
	Check    string `json:"check"`
	Severity string `json:"severity"`
	Gate     string `json:"gate,omitempty"`
	Line     int    `json:"line,omitempty"`
	Col      int    `json:"col,omitempty"`
	Msg      string `json:"msg"`
}

func (d Diagnostic) String() string {
	var b strings.Builder
	if d.Line > 0 {
		fmt.Fprintf(&b, "line %d", d.Line)
		if d.Col > 0 {
			fmt.Fprintf(&b, ":%d", d.Col)
		}
		b.WriteString(": ")
	}
	sev := d.Severity
	if sev == "" {
		sev = SeverityError
	}
	fmt.Fprintf(&b, "%s: %s: %s", sev, d.Check, d.Msg)
	return b.String()
}

// Error is the typed failure of a governed parse: the format that was
// being read and every diagnostic collected before the parse gave up
// (bounded by Limits.MaxErrors). Context cancellation is NOT wrapped in
// an Error — it propagates as the context's own error.
type Error struct {
	Format string // "liberty", "verilog", "bench"
	Diags  []Diagnostic
}

func (e *Error) Error() string {
	if len(e.Diags) == 0 {
		return e.Format + ": parse failed"
	}
	s := fmt.Sprintf("%s: %s", e.Format, e.Diags[0].String())
	if len(e.Diags) > 1 {
		s += fmt.Sprintf(" (and %d more diagnostics)", len(e.Diags)-1)
	}
	return s
}

// Budget reports whether any diagnostic is budget-class: the input was
// rejected for size/cost, not for being malformed.
func (e *Error) Budget() bool {
	for _, d := range e.Diags {
		if d.Check == CheckBudget {
			return true
		}
	}
	return false
}

// As unwraps err to an *Error when the failure came from a governed
// parse.
func As(err error) (*Error, bool) {
	var ie *Error
	ok := errors.As(err, &ie)
	return ie, ok
}

// IsBudget reports whether err is a governed-parse failure caused by a
// budget, i.e. the caller should answer "too large" rather than
// "malformed".
func IsBudget(err error) bool {
	ie, ok := As(err)
	return ok && ie.Budget()
}

// errBudget is the internal sentinel the Reader and Meter wrap so
// parsers can classify low-level failures without string matching.
var errBudget = errors.New("ingest: budget exceeded")

// IsBudgetSentinel reports whether a low-level reader/meter error is a
// budget trip (used by parsers while converting to Diagnostics).
func IsBudgetSentinel(err error) bool { return errors.Is(err, errBudget) }

// Budgetf builds a budget-classified low-level error: parsers use it for
// budgets they enforce themselves (identifier length, nesting depth,
// element counts) so Collector.File files them under CheckBudget.
func Budgetf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, errBudget)...)
}

// Reader is a counting, budget-enforcing, position-tracking byte source.
// It is the only input interface of the streaming parsers. The lexer
// reads it a buffered window at a time (window) and consumes a prefix
// of each window (consume); the window never reaches past MaxBytes, so
// the byte budget is enforced before a byte is surfaced, and memory
// stays at one fixed-size buffer however large the input is. Bytes a
// window shows but the lexer does not consume come back at the head of
// the next window: that is the Reader's only pushback.
type Reader struct {
	br        *bufio.Reader
	maxBytes  int64
	win       []byte // the current window; win[i:] is unconsumed
	i         int
	n         int64 // bytes consumed by the parser
	line      int   // 1-based line of the next byte
	lineStart int64 // offset of the first byte of that line
}

// readerSize is the Reader's buffer, the largest window it offers.
const readerSize = 64 << 10

// NewReader wraps r with the byte budget of lim (which should already
// have defaults applied).
func NewReader(r io.Reader, lim Limits) *Reader {
	return &Reader{
		br:       bufio.NewReaderSize(r, readerSize),
		maxBytes: lim.MaxBytes,
		line:     1,
	}
}

// window returns the unconsumed bytes of the current window, or of a
// new one when they are all consumed. A window never reaches past
// MaxBytes. window returns io.EOF at the end of the input, a
// budget-sentinel error when the next byte lies past MaxBytes, or the
// source's error. The slice stays valid until the call that refills.
func (r *Reader) window() ([]byte, error) {
	if r.i < len(r.win) {
		return r.win[r.i:], nil
	}
	return r.refill()
}

// refill hands the consumed window back to the buffer and takes the
// bytes buffered after it, reading from the source when there are none.
func (r *Reader) refill() ([]byte, error) {
	r.br.Discard(len(r.win))
	r.win, r.i = nil, 0
	if r.br.Buffered() == 0 {
		if _, err := r.br.Peek(1); err != nil {
			if r.n >= r.maxBytes {
				return nil, io.EOF
			}
			return nil, err
		}
	}
	if r.n >= r.maxBytes {
		return nil, fmt.Errorf("input exceeds the %d-byte budget: %w", r.maxBytes, errBudget)
	}
	w, _ := r.br.Peek(r.br.Buffered())
	if rem := r.maxBytes - r.n; int64(len(w)) > rem {
		w = w[:rem]
	}
	r.win = w
	return w, nil
}

// consume advances past b, which must be a prefix of the last window.
func (r *Reader) consume(b []byte) {
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		r.line += bytes.Count(b[:i+1], newline)
		r.lineStart = r.n + int64(i) + 1
	}
	r.advance(len(b))
}

// advance consumes the next k bytes of the window, which hold no
// newline.
func (r *Reader) advance(k int) {
	r.i += k
	r.n += int64(k)
}

var newline = []byte{'\n'}

// Pos returns the 1-based line and column of the next byte.
func (r *Reader) Pos() (line, col int) { return r.line, int(r.n-r.lineStart) + 1 }

// Meter is the per-token budget and cancellation turnstile. Every
// lexical token calls Tick once; the context is polled every pollEvery
// ticks so a cancelled parse stops within one interval.
type Meter struct {
	ctx       context.Context
	maxTokens int64
	tokens    int64
}

// NewMeter builds the turnstile for lim (defaults already applied).
func NewMeter(lim Limits) *Meter {
	return &Meter{ctx: lim.Ctx, maxTokens: lim.MaxTokens}
}

// Tick accounts one token: a budget-sentinel error past MaxTokens, the
// context's own error when cancelled.
func (m *Meter) Tick() error {
	m.tokens++
	if m.tokens > m.maxTokens || m.tokens%pollEvery == 0 {
		return m.check()
	}
	return nil
}

// check is Tick's slow path: the token budget, then the context.
func (m *Meter) check() error {
	if m.tokens > m.maxTokens {
		return fmt.Errorf("input exceeds the %d-token budget: %w", m.maxTokens, errBudget)
	}
	return m.ctx.Err()
}

// IsCtxErr reports whether err is context cancellation (as opposed to a
// budget or syntax failure): such errors must propagate unwrapped.
func IsCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Collector accumulates recoverable diagnostics up to the MaxErrors
// bound. Add reports whether the parser may keep recovering; once the
// bound is hit a final budget-class diagnostic is appended and further
// recovery must stop.
type Collector struct {
	Format string
	max    int
	diags  []Diagnostic
	closed bool
}

// NewCollector builds a collector for one governed parse.
func NewCollector(format string, lim Limits) *Collector {
	return &Collector{Format: format, max: lim.MaxErrors}
}

// Add records a diagnostic. It returns false once the error budget is
// exhausted: the parse must stop recovering and fail with Err.
func (c *Collector) Add(d Diagnostic) bool {
	if c.closed {
		return false
	}
	if d.Severity == "" {
		d.Severity = SeverityError
	}
	c.diags = append(c.diags, d)
	if len(c.diags) >= c.max {
		c.closed = true
		c.diags = append(c.diags, Diagnostic{
			Check: CheckBudget, Severity: SeverityError,
			Msg: fmt.Sprintf("too many errors (%d); giving up", c.max),
		})
		return false
	}
	return true
}

// File converts a failed-parse error into a collected diagnostic: the
// position is taken from a PosError when present (falling back to the
// supplied line/col, typically the lexer's current position) and budget
// sentinels are classified CheckBudget. recoverable is true when the
// parse may keep going after resynchronizing; otherwise fatal is the
// error to return now — the context's own error unwrapped, or the
// collected Error for budget trips and exhausted error budgets.
func (c *Collector) File(err error, line, col int) (recoverable bool, fatal error) {
	if IsCtxErr(err) {
		return false, err
	}
	msg := err
	var pe *PosError
	if errors.As(err, &pe) {
		line, col, msg = pe.Line, pe.Col, pe.Err
	}
	check := CheckSyntax
	if IsBudgetSentinel(err) {
		check = CheckBudget
	}
	ok := c.Add(Diagnostic{Check: check, Severity: SeverityError, Line: line, Col: col, Msg: msg.Error()})
	if check == CheckBudget || !ok {
		return false, c.Err()
	}
	return true, nil
}

// Empty reports whether no diagnostics were collected.
func (c *Collector) Empty() bool { return len(c.diags) == 0 }

// Err returns the typed parse error for the collected diagnostics, or
// nil when the parse was clean.
func (c *Collector) Err() error {
	if len(c.diags) == 0 {
		return nil
	}
	return &Error{Format: c.Format, Diags: c.diags}
}
