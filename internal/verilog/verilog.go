// Package verilog reads and writes gate-level structural Verilog using
// the language's built-in primitive gates (and/nand/or/nor/xor/xnor/
// not/buf), the standard interchange form for mapped netlists alongside
// .bench. The subset is Verilog-1995 structural: one module, port and
// wire declarations, primitive instantiations with the output first.
package verilog

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/circuit"
	"repro/internal/ingest"
)

var fnByPrimitive = map[string]circuit.Fn{
	"and": circuit.And, "nand": circuit.Nand,
	"or": circuit.Or, "nor": circuit.Nor,
	"xor": circuit.Xor, "xnor": circuit.Xnor,
	"not": circuit.Not, "buf": circuit.Buf,
}

var primitiveByFn = map[circuit.Fn]string{
	circuit.And: "and", circuit.Nand: "nand",
	circuit.Or: "or", circuit.Nor: "nor",
	circuit.Xor: "xor", circuit.Xnor: "xnor",
	circuit.Not: "not", circuit.Buf: "buf",
}

// Write emits the circuit as a structural Verilog module. Net names are
// sanitized to Verilog identifiers (ISCAS names are often numeric, which
// Verilog forbids, so every name gets an `n_` prefix if needed).
func Write(w io.Writer, c *circuit.Circuit) error {
	bw := bufio.NewWriter(w)
	name := sanitize(c.Name)
	var ports []string
	for _, id := range c.Inputs() {
		ports = append(ports, sanitize(c.Gate(id).Name))
	}
	for i := range c.Outputs {
		ports = append(ports, fmt.Sprintf("po_%d", i))
	}
	// Outputs whose driving gate is already named po_<i> (i.e. a netlist
	// this writer produced) are emitted as the port directly, so
	// Write∘Parse is a fixed point instead of wrapping another buffer
	// layer — and colliding on po_<i> — every round trip.
	directOut := make([]bool, len(c.Outputs))
	directGate := map[circuit.GateID]bool{}
	for i, po := range c.Outputs {
		if sanitize(c.Gate(po).Name) == fmt.Sprintf("po_%d", i) {
			directOut[i] = true
			directGate[po] = true
		}
	}
	fmt.Fprintf(bw, "// generated from %s\n", c.Name)
	fmt.Fprintf(bw, "module %s (%s);\n", name, strings.Join(ports, ", "))
	for _, id := range c.Inputs() {
		fmt.Fprintf(bw, "  input %s;\n", sanitize(c.Gate(id).Name))
	}
	for i := range c.Outputs {
		fmt.Fprintf(bw, "  output po_%d;\n", i)
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Fn.IsLogic() && !directGate[circuit.GateID(i)] {
			fmt.Fprintf(bw, "  wire %s;\n", sanitize(g.Name))
		}
	}
	topo, err := c.TopoOrder()
	if err != nil {
		return err
	}
	inst := 0
	for _, id := range topo {
		g := c.Gate(id)
		if !g.Fn.IsLogic() {
			if g.Fn == circuit.Const0 || g.Fn == circuit.Const1 {
				return fmt.Errorf("verilog: constant gate %q not supported", g.Name)
			}
			continue
		}
		prim, ok := primitiveByFn[g.Fn]
		if !ok {
			return fmt.Errorf("verilog: no primitive for %s", g.Fn)
		}
		args := []string{sanitize(g.Name)}
		for _, f := range g.Fanin {
			args = append(args, sanitize(c.Gate(f).Name))
		}
		fmt.Fprintf(bw, "  %s g%d (%s);\n", prim, inst, strings.Join(args, ", "))
		inst++
	}
	// Tie declared outputs to their driving nets (unless the driving
	// gate already is the port).
	for i, po := range c.Outputs {
		if directOut[i] {
			continue
		}
		fmt.Fprintf(bw, "  buf gpo%d (po_%d, %s);\n", i, i, sanitize(c.Gate(po).Name))
	}
	fmt.Fprintf(bw, "endmodule\n")
	return bw.Flush()
}

// sanitize turns an arbitrary net name into a legal Verilog identifier.
func sanitize(name string) string {
	if name == "" {
		return "n_unnamed"
	}
	var b strings.Builder
	for _, r := range name {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !ok {
			b.WriteByte('_')
			continue
		}
		b.WriteRune(r)
	}
	s := b.String()
	if s[0] >= '0' && s[0] <= '9' {
		s = "n_" + s
	}
	return s
}

// verilogSpec is the surface syntax of the structural subset: ();
// punctuate, commas are separators (the historical parser treated them
// as skippable too).
var verilogSpec = ingest.LexSpec{Puncts: "();", Skip: ","}

// Parse reads a structural Verilog module of the supported subset back
// into a circuit under the default resource budgets. The module's input
// order defines the PI order and the output declarations define the PO
// order.
func Parse(r io.Reader, fallbackName string) (*circuit.Circuit, error) {
	return ParseOpts(r, fallbackName, ingest.Default())
}

// ParseOpts reads a structural Verilog module in a single streaming pass
// under the given budget envelope: the input text is never materialized
// (only the circuit under construction is), the context in lim is polled
// at token granularity, and malformed statements are recovered from with
// a bounded diagnostic list (surfaced as an *ingest.Error) instead of
// first-error bailout. Context cancellation propagates as the context's
// own error.
func ParseOpts(r io.Reader, fallbackName string, lim ingest.Limits) (*circuit.Circuit, error) {
	lim = lim.WithDefaults()
	if err := lim.Ctx.Err(); err != nil {
		return nil, err
	}
	p := &vparser{
		lx:   ingest.NewLexer(ingest.NewReader(r, lim), ingest.NewMeter(lim), lim, verilogSpec),
		lim:  lim,
		diag: ingest.NewCollector("verilog", lim),
	}
	return p.module(fallbackName)
}

// vparser is the streaming statement-at-a-time reader. gates and nets
// count every declaration against the budget envelope.
type vparser struct {
	lx    *ingest.Lexer
	lim   ingest.Limits
	diag  *ingest.Collector
	gates int
	nets  int
}

// fail files a lexer/parse error as a diagnostic; the returned error is
// non-nil when the parse must stop now (ctx, budget, error budget).
func (p *vparser) fail(err error) error {
	line, col := p.lx.Pos()
	rec, fatal := p.diag.File(err, line, col)
	if rec {
		p.lx.ClearErr()
	}
	return fatal
}

// semantic files a structural diagnostic (gate names the offending net
// when known); false means the error budget is exhausted.
func (p *vparser) semantic(gate string, line, col int, msg string) bool {
	return p.diag.Add(ingest.Diagnostic{
		Check: ingest.CheckSemantic, Severity: ingest.SeverityError,
		Gate: gate, Line: line, Col: col, Msg: msg,
	})
}

// addGate counts one gate against the budget before it is materialized.
func (p *vparser) addGate() error {
	p.gates++
	if p.gates > p.lim.MaxGates {
		return ingest.Budgetf("netlist declares more than %d gates", p.lim.MaxGates)
	}
	return nil
}

// addNet counts one declared name / pin reference against the budget.
func (p *vparser) addNet() error {
	p.nets++
	if p.nets > p.lim.MaxNets {
		return ingest.Budgetf("netlist references more than %d nets", p.lim.MaxNets)
	}
	return nil
}

// expect consumes the next token and requires it to be the punctuation s.
func (p *vparser) expect(s string) error {
	tok, err := p.lx.Next()
	if err != nil {
		return err
	}
	if tok.Kind != ingest.TokenPunct || tok.Text != s {
		return ingest.Errf(tok.Line, tok.Col, "expected %q, got %s", s, tok)
	}
	return nil
}

// nameList parses ident... up to the punctuation until, counting each
// name against the net budget (commas were consumed by the lexer).
func (p *vparser) nameList(until string) ([]string, error) {
	var names []string
	for {
		tok, err := p.lx.Next()
		if err != nil {
			return nil, err
		}
		switch {
		case tok.Kind == ingest.TokenPunct && tok.Text == until:
			return names, nil
		case tok.Kind == ingest.TokenIdent:
			if err := p.addNet(); err != nil {
				return nil, err
			}
			names = append(names, tok.Text)
		default:
			return nil, ingest.Errf(tok.Line, tok.Col, "unexpected %s in name list", tok)
		}
	}
}

// resyncStmt recovers after a filed diagnostic by discarding tokens up
// to the next statement boundary (';') without consuming endmodule.
func (p *vparser) resyncStmt() error {
	for {
		tok, err := p.lx.Peek()
		if err != nil {
			if f := p.fail(err); f != nil {
				return f
			}
			continue
		}
		if tok.Kind == ingest.TokenEOF || (tok.Kind == ingest.TokenIdent && tok.Text == "endmodule") {
			return nil
		}
		p.lx.Next()
		if tok.Kind == ingest.TokenPunct && tok.Text == ";" {
			return nil
		}
	}
}

// vinst is one parsed primitive instantiation: output terminal first,
// then fanin nets, with the source position of the primitive keyword.
type vinst struct {
	fn        circuit.Fn
	args      []string
	line, col int
}

func (p *vparser) module(fallbackName string) (*circuit.Circuit, error) {
	// Header: module name ( ports ) ;  — port order is re-derived from
	// the input/output declarations, as before. Header damage is not
	// recoverable: without a module there is nothing to attach to.
	tok, err := p.lx.Next()
	if err != nil {
		if f := p.fail(err); f != nil {
			return nil, f
		}
		return nil, p.diag.Err()
	}
	if tok.Kind != ingest.TokenIdent || tok.Text != "module" {
		p.semantic("", tok.Line, tok.Col, fmt.Sprintf("expected module, got %s", tok))
		return nil, p.diag.Err()
	}
	name := fallbackName
	tok, err = p.lx.Next()
	if err == nil && tok.Kind == ingest.TokenIdent {
		name = tok.Text
		err = p.expect("(")
	} else if err == nil {
		err = ingest.Errf(tok.Line, tok.Col, "expected module name, got %s", tok)
	}
	if err == nil {
		_, err = p.nameList(")")
	}
	if err == nil {
		err = p.expect(";")
	}
	if err != nil {
		if f := p.fail(err); f != nil {
			return nil, f
		}
		return nil, p.diag.Err()
	}

	c := circuit.New(name)
	var (
		outputs []string
		insts   []vinst
		wires   []string
		wireSet = map[string]bool{}
	)
loop:
	for {
		tok, err := p.lx.Next()
		if err != nil {
			if f := p.fail(err); f != nil {
				return nil, f
			}
			if f := p.resyncStmt(); f != nil {
				return nil, f
			}
			continue
		}
		if tok.Kind == ingest.TokenEOF {
			p.semantic("", tok.Line, tok.Col, "missing endmodule")
			break
		}
		if tok.Kind != ingest.TokenIdent {
			if f := p.fail(ingest.Errf(tok.Line, tok.Col, "unexpected %s", tok)); f != nil {
				return nil, f
			}
			if f := p.resyncStmt(); f != nil {
				return nil, f
			}
			continue
		}
		switch tok.Text {
		case "endmodule":
			break loop
		case "input":
			names, err := p.nameList(";")
			if err != nil {
				if f := p.fail(err); f != nil {
					return nil, f
				}
				if f := p.resyncStmt(); f != nil {
					return nil, f
				}
				continue
			}
			for _, n := range names {
				if err := p.addGate(); err != nil {
					return nil, p.fail(err)
				}
				if _, err := c.AddGate(n, circuit.Input); err != nil {
					if !p.semantic(n, tok.Line, tok.Col, err.Error()) {
						return nil, p.diag.Err()
					}
				}
			}
		case "output":
			names, err := p.nameList(";")
			if err != nil {
				if f := p.fail(err); f != nil {
					return nil, f
				}
				if f := p.resyncStmt(); f != nil {
					return nil, f
				}
				continue
			}
			outputs = append(outputs, names...)
		case "wire":
			names, err := p.nameList(";")
			if err != nil {
				if f := p.fail(err); f != nil {
					return nil, f
				}
				if f := p.resyncStmt(); f != nil {
					return nil, f
				}
				continue
			}
			for _, n := range names {
				if !wireSet[n] {
					wireSet[n] = true
					wires = append(wires, n)
				}
			}
		default:
			fn, ok := fnByPrimitive[tok.Text]
			if !ok {
				if f := p.fail(ingest.Errf(tok.Line, tok.Col, "unsupported construct %q", tok.Text)); f != nil {
					return nil, f
				}
				if f := p.resyncStmt(); f != nil {
					return nil, f
				}
				continue
			}
			inst, err := p.instantiation(fn, tok)
			if err != nil {
				if f := p.fail(err); f != nil {
					return nil, f
				}
				if f := p.resyncStmt(); f != nil {
					return nil, f
				}
				continue
			}
			if len(inst.args) < 2 {
				if !p.semantic("", inst.line, inst.col,
					fmt.Sprintf("primitive %q with %d terminals", tok.Text, len(inst.args))) {
					return nil, p.diag.Err()
				}
				continue
			}
			if err := p.addGate(); err != nil {
				return nil, p.fail(err)
			}
			insts = append(insts, inst)
		}
	}
	p.link(c, outputs, insts, wires)
	if err := p.diag.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// instantiation parses "NAME ( args ) ;" after the primitive keyword.
func (p *vparser) instantiation(fn circuit.Fn, prim ingest.Token) (vinst, error) {
	in := vinst{fn: fn, line: prim.Line, col: prim.Col}
	tok, err := p.lx.Next()
	if err != nil {
		return in, err
	}
	if tok.Kind != ingest.TokenIdent { // instance name, required but otherwise ignored
		return in, ingest.Errf(tok.Line, tok.Col, "primitive %q missing instance name", prim.Text)
	}
	if err := p.expect("("); err != nil {
		return in, err
	}
	if in.args, err = p.nameList(")"); err != nil {
		return in, err
	}
	return in, p.expect(";")
}

// link materializes instances as gates (output terminal first, per the
// Verilog primitive convention) and resolves output declarations.
// Failures are filed as diagnostics so one bad net does not hide the
// rest of the report.
func (p *vparser) link(c *circuit.Circuit, outputs []string, insts []vinst, wires []string) {
	// Keep the ids returned by AddGate so the connect pass needs no
	// panicking lookup (this path is reachable from user netlist files).
	ids := make([]circuit.GateID, len(insts))
	valid := make([]bool, len(insts))
	c.Grow(len(insts))
	for i, in := range insts {
		id, err := c.AddGate(in.args[0], in.fn)
		if err != nil {
			if !p.semantic(in.args[0], in.line, in.col, err.Error()) {
				return
			}
			continue
		}
		ids[i], valid[i] = id, true
	}
	for i, in := range insts {
		if !valid[i] {
			continue
		}
		for _, src := range in.args[1:] {
			id, ok := c.Lookup(src)
			if !ok {
				if !p.semantic(src, in.line, in.col, fmt.Sprintf("net %q driven by nothing", src)) {
					return
				}
				continue
			}
			if err := c.Connect(id, ids[i]); err != nil {
				if !p.semantic(src, in.line, in.col, err.Error()) {
					return
				}
			}
		}
	}
	for _, o := range outputs {
		id, ok := c.Lookup(o)
		if !ok {
			if !p.semantic(o, 0, 0, fmt.Sprintf("output %q undriven", o)) {
				return
			}
			continue
		}
		if err := c.MarkOutput(id); err != nil {
			if !p.semantic(o, 0, 0, err.Error()) {
				return
			}
		}
	}
	// Declared wires that never became gate outputs indicate a truncated
	// or unsupported netlist (declaration order keeps reports stable).
	for _, w := range wires {
		if _, ok := c.Lookup(w); !ok {
			if !p.semantic(w, 0, 0, fmt.Sprintf("wire %q declared but never driven", w)) {
				return
			}
		}
	}
	if p.diag.Empty() {
		if err := c.Validate(); err != nil {
			p.semantic("", 0, 0, err.Error())
		}
	}
}
