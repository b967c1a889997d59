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
	"slices"
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
		lx:   ingest.NewViewLexer(ingest.NewReader(r, lim), ingest.NewMeter(lim), lim, verilogSpec),
		lim:  lim,
		diag: ingest.NewCollector("verilog", lim),
		ids:  map[string]int32{},
	}
	return p.module(fallbackName)
}

// vparser is the streaming statement-at-a-time reader. gates and nets
// count every declaration against the budget envelope.
//
// Every net name the circuit keeps (input, output and wire declarations
// and instance terminals) is interned once into syms; statements refer
// to nets by symbol index from then on. Names the reader discards (the
// module's port list and instance names) are never interned.
type vparser struct {
	lx    *ingest.Lexer
	lim   ingest.Limits
	diag  *ingest.Collector
	gates int
	nets  int

	ids  map[string]int32 // name -> index into syms
	syms []symbol
	args []int32 // every instance's terminals, output first, back to back
}

// symbol is one distinct net name and what the reader knows of it.
type symbol struct {
	name        string
	gate        circuit.GateID // the gate driving it, None until link adds one
	input, wire bool           // declared by an input / a wire statement
}

// intern returns the symbol of name, adding it on first sight. The map
// lookup with string(name) does not allocate; only a new name does.
func (p *vparser) intern(name []byte) int32 {
	if id, ok := p.ids[string(name)]; ok {
		return id
	}
	s := string(name)
	id := int32(len(p.syms))
	p.ids[s] = id
	p.syms = push(p.syms, symbol{name: s, gate: circuit.None})
	return id
}

// push appends v to s, doubling the capacity when s is full: a parse
// that collects n elements then allocates about 2n of them, where
// append's gentler growth for large slices allocates about 5n.
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(len(s), 16))
	}
	return append(s, v)
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

// show renders a token for a message, quoting an identifier's text.
func (p *vparser) show(tok ingest.Token) string {
	if tok.Kind == ingest.TokenIdent {
		return fmt.Sprintf("%q", p.lx.Ident())
	}
	return tok.String()
}

// isIdent reports whether tok is the identifier word.
func (p *vparser) isIdent(tok ingest.Token, word string) bool {
	return tok.Kind == ingest.TokenIdent && string(p.lx.Ident()) == word
}

// expect consumes the next token and requires it to be the punctuation s.
func (p *vparser) expect(s string) error {
	tok, err := p.lx.Next()
	if err != nil {
		return err
	}
	if tok.Kind != ingest.TokenPunct || tok.Text != s {
		return ingest.Errf(tok.Line, tok.Col, "expected %q, got %s", s, p.show(tok))
	}
	return nil
}

// nameList parses ident... up to the punctuation until, counting each
// name against the net budget (commas were consumed by the lexer). With
// keep it appends each name's symbol to dst; otherwise the names are
// only counted.
func (p *vparser) nameList(until string, dst []int32, keep bool) ([]int32, error) {
	for {
		kind, err := p.lx.Advance()
		if err != nil {
			return dst, err
		}
		if kind == ingest.TokenIdent {
			if err := p.addNet(); err != nil {
				return dst, err
			}
			if keep {
				dst = push(dst, p.intern(p.lx.Ident()))
			}
			continue
		}
		tok := p.lx.Last()
		if kind == ingest.TokenPunct && tok.Text == until {
			return dst, nil
		}
		return dst, ingest.Errf(tok.Line, tok.Col, "unexpected %s in name list", tok)
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
		if tok.Kind == ingest.TokenEOF || p.isIdent(tok, "endmodule") {
			return nil
		}
		p.lx.Next()
		if tok.Kind == ingest.TokenPunct && tok.Text == ";" {
			return nil
		}
	}
}

// recover files err and resynchronizes to the next statement; a non-nil
// result means the parse must stop with it.
func (p *vparser) recover(err error) error {
	if f := p.fail(err); f != nil {
		return f
	}
	return p.resyncStmt()
}

// vinst is one parsed primitive instantiation: its terminals are
// args[start:end], output first, then the fanin nets, and line and col
// are the position of the primitive keyword.
type vinst struct {
	fn         circuit.Fn
	start, end int32
	line, col  int32
}

// terms returns the terminals of in: output first, then fanins.
func (p *vparser) terms(in vinst) []int32 { return p.args[in.start:in.end] }

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
	if !p.isIdent(tok, "module") {
		p.semantic("", tok.Line, tok.Col, fmt.Sprintf("expected module, got %s", p.show(tok)))
		return nil, p.diag.Err()
	}
	name := fallbackName
	tok, err = p.lx.Next()
	if err == nil && tok.Kind == ingest.TokenIdent {
		name = string(p.lx.Ident())
		err = p.expect("(")
	} else if err == nil {
		err = ingest.Errf(tok.Line, tok.Col, "expected module name, got %s", tok)
	}
	if err == nil {
		_, err = p.nameList(")", nil, false)
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

	var (
		inputs, outputs, wires, list []int32
		insts                        []vinst
	)
loop:
	for {
		tok, err := p.lx.Next()
		if err != nil {
			if f := p.recover(err); f != nil {
				return nil, f
			}
			continue
		}
		if tok.Kind == ingest.TokenEOF {
			p.semantic("", tok.Line, tok.Col, "missing endmodule")
			break
		}
		if tok.Kind != ingest.TokenIdent {
			if f := p.recover(ingest.Errf(tok.Line, tok.Col, "unexpected %s", tok)); f != nil {
				return nil, f
			}
			continue
		}
		word := p.lx.Ident()
		switch {
		case string(word) == "endmodule":
			break loop
		case string(word) == "input", string(word) == "output", string(word) == "wire":
			kind := word[0] // 'i', 'o' or 'w': word is gone after the next scan
			if list, err = p.nameList(";", list[:0], true); err != nil {
				if f := p.recover(err); f != nil {
					return nil, f
				}
				continue
			}
			switch kind {
			case 'i':
				// Input gates are added by link, first and in this
				// order; a repeated name is refused here, in source
				// order among the other diagnostics, as circuit.AddGate
				// would refuse it.
				for _, s := range list {
					if err := p.addGate(); err != nil {
						return nil, p.fail(err)
					}
					sym := &p.syms[s]
					if sym.input {
						msg := fmt.Sprintf("circuit %q: duplicate gate name %q", name, sym.name)
						if !p.semantic(sym.name, tok.Line, tok.Col, msg) {
							return nil, p.diag.Err()
						}
						continue
					}
					sym.input = true
					inputs = push(inputs, s)
				}
			case 'o':
				outputs = append(outputs, list...)
			default:
				for _, s := range list {
					if !p.syms[s].wire {
						p.syms[s].wire = true
						wires = push(wires, s)
					}
				}
			}
		default:
			fn, ok := fnByPrimitive[string(word)]
			if !ok {
				if f := p.recover(ingest.Errf(tok.Line, tok.Col, "unsupported construct %q", word)); f != nil {
					return nil, f
				}
				continue
			}
			inst, err := p.instantiation(fn, tok)
			if err != nil {
				if f := p.recover(err); f != nil {
					return nil, f
				}
				continue
			}
			if n := inst.end - inst.start; n < 2 {
				p.args = p.args[:inst.start]
				if !p.semantic("", int(inst.line), int(inst.col),
					fmt.Sprintf("primitive %q with %d terminals", primitiveByFn[fn], n)) {
					return nil, p.diag.Err()
				}
				continue
			}
			if err := p.addGate(); err != nil {
				return nil, p.fail(err)
			}
			insts = push(insts, inst)
		}
	}
	c := circuit.New(name)
	p.link(c, inputs, outputs, insts, wires)
	if err := p.diag.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// instantiation parses "NAME ( args ) ;" after the primitive keyword,
// appending the terminals to p.args; on an error it leaves p.args as it
// found it.
func (p *vparser) instantiation(fn circuit.Fn, prim ingest.Token) (vinst, error) {
	start := int32(len(p.args))
	in := vinst{fn: fn, start: start, line: int32(prim.Line), col: int32(prim.Col)}
	err := p.instTail(fn)
	if err != nil {
		p.args = p.args[:start]
	}
	in.end = int32(len(p.args))
	return in, err
}

// instTail parses the instance name, which is required but otherwise
// ignored, and the terminal list of an instantiation.
func (p *vparser) instTail(fn circuit.Fn) error {
	tok, err := p.lx.Next()
	if err != nil {
		return err
	}
	if tok.Kind != ingest.TokenIdent {
		return ingest.Errf(tok.Line, tok.Col, "primitive %q missing instance name", primitiveByFn[fn])
	}
	if err := p.expect("("); err != nil {
		return err
	}
	if p.args, err = p.nameList(")", p.args, true); err != nil {
		return err
	}
	return p.expect(";")
}

// link materializes the inputs, then the instances as gates (output
// terminal first, per the Verilog primitive convention), and resolves
// output declarations. Fanins resolve by symbol, and every gate's Fanin
// and Fanout get their capacity up front, carved from two shared
// arrays. Failures are filed as diagnostics so one bad net does not
// hide the rest of the report.
func (p *vparser) link(c *circuit.Circuit, inputs, outputs []int32, insts []vinst, wires []int32) {
	c.Grow(len(inputs) + len(insts))
	for _, s := range inputs {
		// The parse refused repeated names, so this cannot fail.
		p.syms[s].gate = c.MustAddGate(p.syms[s].name, circuit.Input)
	}
	// Keep the ids returned by AddGate so the connect pass needs no
	// panicking lookup (this path is reachable from user netlist files).
	ids := make([]circuit.GateID, len(insts))
	for i, in := range insts {
		sym := &p.syms[p.terms(in)[0]]
		id, err := c.AddGate(sym.name, in.fn)
		ids[i] = id
		if err != nil {
			if !p.semantic(sym.name, int(in.line), int(in.col), err.Error()) {
				return
			}
			continue
		}
		sym.gate = id
	}
	p.reserve(c, insts, ids)
	for i, in := range insts {
		if ids[i] == circuit.None {
			continue
		}
		for _, s := range p.terms(in)[1:] {
			sym := &p.syms[s]
			if sym.gate == circuit.None {
				if !p.semantic(sym.name, int(in.line), int(in.col), fmt.Sprintf("net %q driven by nothing", sym.name)) {
					return
				}
				continue
			}
			if err := c.Connect(sym.gate, ids[i]); err != nil {
				if !p.semantic(sym.name, int(in.line), int(in.col), err.Error()) {
					return
				}
			}
		}
	}
	for _, s := range outputs {
		sym := &p.syms[s]
		if sym.gate == circuit.None {
			if !p.semantic(sym.name, 0, 0, fmt.Sprintf("output %q undriven", sym.name)) {
				return
			}
			continue
		}
		if err := c.MarkOutput(sym.gate); err != nil {
			if !p.semantic(sym.name, 0, 0, err.Error()) {
				return
			}
		}
	}
	// Declared wires that never became gate outputs indicate a truncated
	// or unsupported netlist (declaration order keeps reports stable).
	for _, s := range wires {
		if sym := &p.syms[s]; sym.gate == circuit.None {
			if !p.semantic(sym.name, 0, 0, fmt.Sprintf("wire %q declared but never driven", sym.name)) {
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

// reserve gives every gate an empty Fanin and Fanout with room for the
// edges the connect pass can add to it, cut from one array each with
// the capacity capped, so an edge added later never reaches into the
// next gate's room.
func (p *vparser) reserve(c *circuit.Circuit, insts []vinst, ids []circuit.GateID) {
	fanouts := make([]int32, c.NumGates())
	edges := 0
	for i, in := range insts {
		if ids[i] == circuit.None {
			continue
		}
		for _, s := range p.terms(in)[1:] {
			if g := p.syms[s].gate; g != circuit.None {
				fanouts[g]++
				edges++
			}
		}
	}
	fanin := make([]circuit.GateID, edges)
	off := 0
	for i, in := range insts {
		if ids[i] == circuit.None {
			continue
		}
		n := 0
		for _, s := range p.terms(in)[1:] {
			if p.syms[s].gate != circuit.None {
				n++
			}
		}
		c.Gates[ids[i]].Fanin = fanin[off : off : off+n]
		off += n
	}
	fanout := make([]circuit.GateID, edges)
	off = 0
	for id, n := range fanouts {
		if n > 0 {
			c.Gates[id].Fanout = fanout[off : off : off+int(n)]
			off += int(n)
		}
	}
}
