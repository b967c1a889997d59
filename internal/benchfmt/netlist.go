package benchfmt

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/circuit"
	"repro/internal/ingest"
)

// ctxPollLines is how many netlist lines pass between context polls in
// ParseNetlistOpts: cancellation lands within a few microseconds of real
// parse work without ctx.Err showing up in a profile.
const ctxPollLines = 256

// maxLine bounds one netlist line in bytes: the scanner never buffers
// more than this, whatever MaxBytes allows.
const maxLine = 1 << 20

// Port is one INPUT or OUTPUT declaration of a raw netlist, with the
// source line it came from.
type Port struct {
	Name string
	Line int
}

// RawGate is one gate definition line of a raw netlist. Fn is the parsed
// function; Fanins are the referenced net names exactly as written.
type RawGate struct {
	Name   string
	Fn     circuit.Fn
	Fanins []string
	Line   int
}

// Netlist is the raw, structurally unvalidated form of a .bench file:
// every line has been tokenized and its function keyword resolved, but
// no semantic checks (duplicate names, undriven nets, cycles) have run.
// It exists so internal/circuitlint can report ALL structural problems
// of a bad netlist as collected diagnostics, where the strict Parse path
// fails on the first one.
type Netlist struct {
	Name    string
	Inputs  []Port
	Outputs []Port
	Gates   []RawGate
}

// ParseNetlist is ParseNetlistOpts with no resource budget
// (ingest.Unlimited), for trusted text.
func ParseNetlist(r io.Reader, name string) (*Netlist, error) {
	return ParseNetlistOpts(r, name, ingest.Unlimited())
}

// ParseNetlistOpts reads a .bench file into its raw form under the budget
// envelope lim, in one line scan. Syntax problems (unrecognized lines,
// malformed definitions, empty names or fanins, unknown or sequential
// (DFF) functions) are collected as positioned diagnostics, one per bad
// line, up to lim.MaxErrors, and returned as an *ingest.Error. The
// budgets are MaxBytes (raw input, enforced on the reader so the scan
// stops one byte past it), MaxTokens (every name and function keyword),
// MaxIdent (one name), MaxGates (gate definitions) and MaxNets (declared
// ports, gate outputs and fanin references); the first one exceeded
// fails the parse with a budget diagnostic. lim.Ctx is polled every
// ctxPollLines lines and its error is returned unwrapped. Semantic
// problems are left in the returned Netlist for circuitlint or Build.
func ParseNetlistOpts(r io.Reader, name string, lim ingest.Limits) (*Netlist, error) {
	lim = lim.WithDefaults()
	if err := lim.Ctx.Err(); err != nil {
		return nil, err
	}
	in := &io.LimitedReader{R: r, N: lim.MaxBytes}
	if in.N < math.MaxInt64 {
		in.N++ // reading one byte past the budget proves the input is over it
	}
	p := &lineParser{lim: lim, nl: &Netlist{Name: name}}
	diag := ingest.NewCollector("bench", lim)
	sc := bufio.NewScanner(in)
	sc.Buffer(nil, maxLine)
	for sc.Scan() {
		p.line++
		err := p.overBytes(in)
		if err == nil && p.line%ctxPollLines == 0 {
			err = lim.Ctx.Err()
		}
		if err == nil {
			err = p.parseLine(sc.Text())
		}
		if err != nil {
			if _, fatal := diag.File(err, p.line, 0); fatal != nil {
				return nil, fatal
			}
		}
	}
	err := sc.Err()
	if errors.Is(err, bufio.ErrTooLong) {
		err = ingest.Budgetf("line %d is longer than %d bytes", p.line+1, maxLine)
	}
	if err == nil {
		err = p.overBytes(in)
	}
	if err != nil {
		if _, fatal := diag.File(err, p.line+1, 0); fatal != nil {
			return nil, fatal
		}
	}
	if err := diag.Err(); err != nil {
		return nil, err
	}
	return p.nl, nil
}

// lineParser carries the state of one ParseNetlistOpts scan: the netlist
// under construction, the current line and the token and net counts
// charged against the budgets.
type lineParser struct {
	lim          ingest.Limits
	nl           *Netlist
	line         int
	tokens, nets int64
}

// overBytes reports a budget error once the reader has delivered the
// byte past MaxBytes.
func (p *lineParser) overBytes(in *io.LimitedReader) error {
	if in.N == 0 {
		return ingest.Budgetf("input exceeds the %d-byte budget", p.lim.MaxBytes)
	}
	return nil
}

// charge counts names (and one function keyword per gate) against the
// token, net and identifier budgets.
func (p *lineParser) charge(keywords int, names ...string) error {
	p.tokens += int64(keywords + len(names))
	if p.tokens > p.lim.MaxTokens {
		return ingest.Budgetf("input exceeds the %d-token budget", p.lim.MaxTokens)
	}
	p.nets += int64(len(names))
	if p.nets > int64(p.lim.MaxNets) {
		return ingest.Budgetf("netlist references more than %d nets", p.lim.MaxNets)
	}
	for _, n := range names {
		if len(n) > p.lim.MaxIdent {
			return ingest.Budgetf("name of %d bytes exceeds the %d-byte identifier budget", len(n), p.lim.MaxIdent)
		}
	}
	return nil
}

// port parses the name of an INPUT(...) or OUTPUT(...) line.
func (p *lineParser) port(line, kind string) (Port, error) {
	n := strings.TrimSpace(line[len(kind)+1 : len(line)-1])
	if n == "" {
		return Port{}, fmt.Errorf("empty %s name", kind)
	}
	return Port{Name: n, Line: p.line}, p.charge(0, n)
}

// hasPrefixFold is strings.HasPrefix under ASCII case folding.
func hasPrefixFold(s, prefix string) bool {
	return len(s) >= len(prefix) && strings.EqualFold(s[:len(prefix)], prefix)
}

// parseLine adds one source line to the netlist. Comments and blank
// lines are skipped; a syntax problem or an exceeded budget is returned.
func (p *lineParser) parseLine(raw string) error {
	line := strings.TrimSpace(raw)
	if line == "" || strings.HasPrefix(line, "#") {
		return nil
	}
	closed := strings.HasSuffix(line, ")")
	switch {
	case closed && hasPrefixFold(line, "INPUT("):
		port, err := p.port(line, "INPUT")
		if err != nil {
			return err
		}
		p.nl.Inputs = append(p.nl.Inputs, port)
	case closed && hasPrefixFold(line, "OUTPUT("):
		port, err := p.port(line, "OUTPUT")
		if err != nil {
			return err
		}
		p.nl.Outputs = append(p.nl.Outputs, port)
	default:
		eq := strings.Index(line, "=")
		if eq < 0 {
			return fmt.Errorf("unrecognized line %q", line)
		}
		lhs := strings.TrimSpace(line[:eq])
		rhs := strings.TrimSpace(line[eq+1:])
		open := strings.Index(rhs, "(")
		if open < 0 || !strings.HasSuffix(rhs, ")") {
			return fmt.Errorf("malformed gate definition %q", line)
		}
		if lhs == "" {
			return fmt.Errorf("empty gate name in %q", line)
		}
		fnName := strings.ToUpper(strings.TrimSpace(rhs[:open]))
		if fnName == "DFF" {
			return errors.New("sequential element DFF not supported (combinational circuits only)")
		}
		fn, ok := fnByBenchName[fnName]
		if !ok {
			return fmt.Errorf("unknown function %q", fnName)
		}
		if len(p.nl.Gates) >= p.lim.MaxGates {
			return ingest.Budgetf("netlist declares more than %d gates", p.lim.MaxGates)
		}
		fanins := strings.Split(rhs[open+1:len(rhs)-1], ",")
		for i, f := range fanins {
			if fanins[i] = strings.TrimSpace(f); fanins[i] == "" {
				return fmt.Errorf("empty fanin in %q", line)
			}
		}
		if err := p.charge(1, lhs); err != nil {
			return err
		}
		if err := p.charge(0, fanins...); err != nil {
			return err
		}
		p.nl.Gates = append(p.nl.Gates, RawGate{Name: lhs, Fn: fn, Fanins: fanins, Line: p.line})
	}
	return nil
}

// Build converts the raw netlist into a validated circuit. It fails on
// the first semantic problem (duplicate name, undefined net, structural
// invariant violation, cycle) — run circuitlint on the Netlist first for
// a complete diagnosis.
//
// Gates are declared in file-line order, interleaving INPUT lines with
// definitions exactly as the file does, so the GateID assignment — and
// with it every ID-ordered downstream iteration — is identical to what
// the historical single-pass parser produced.
func (nl *Netlist) Build() (*circuit.Circuit, error) {
	c := circuit.New(nl.Name)
	c.Grow(len(nl.Inputs) + len(nl.Gates))
	ids := make([]circuit.GateID, len(nl.Gates))
	in, gi := 0, 0
	for in < len(nl.Inputs) || gi < len(nl.Gates) {
		if in < len(nl.Inputs) && (gi >= len(nl.Gates) || nl.Inputs[in].Line < nl.Gates[gi].Line) {
			p := nl.Inputs[in]
			in++
			if _, err := c.AddGate(p.Name, circuit.Input); err != nil {
				return nil, fmt.Errorf("benchfmt:%d: %v", p.Line, err)
			}
			continue
		}
		g := nl.Gates[gi]
		id, err := c.AddGate(g.Name, g.Fn)
		if err != nil {
			return nil, fmt.Errorf("benchfmt:%d: %v", g.Line, err)
		}
		ids[gi] = id
		gi++
	}
	for i, g := range nl.Gates {
		for _, f := range g.Fanins {
			src, ok := c.Lookup(f)
			if !ok {
				return nil, fmt.Errorf("benchfmt:%d: gate %q references undefined net %q", g.Line, g.Name, f)
			}
			if err := c.Connect(src, ids[i]); err != nil {
				return nil, fmt.Errorf("benchfmt:%d: %v", g.Line, err)
			}
		}
	}
	for _, o := range nl.Outputs {
		id, ok := c.Lookup(o.Name)
		if !ok {
			return nil, fmt.Errorf("benchfmt: OUTPUT(%s) references undefined net", o.Name)
		}
		if err := c.MarkOutput(id); err != nil {
			return nil, err
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}
