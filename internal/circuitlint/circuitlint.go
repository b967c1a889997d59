// Package circuitlint statically checks netlists, built circuits and
// mapped designs, reporting every structural problem it can find as a
// collected list of diagnostics instead of failing on the first one the
// way the strict parse/Validate path does. It is wired in wherever a
// design enters the system: repro.Load (every .bench netlist, on the one
// raw parse the load makes), the ssta/svsize/repro CLIs (-lint flag), the
// sstad service (invalid designs are rejected with the diagnostics in the
// 400 body) and the design cache.
//
// Checks on raw netlists (LintNetlist): dupname, multidriven, undriven,
// arity, cycle, dangling. Checks on built circuits (LintCircuit): cycle,
// dangling. Checks on mapped designs (LintDesign): the circuit checks
// plus unmapped and sizeidx.
package circuitlint

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/benchfmt"
	"repro/internal/circuit"
	"repro/internal/synth"
)

// Check names, stable identifiers carried in every Diagnostic and in the
// sstad 400 response body.
const (
	CheckSyntax      = "syntax"      // line could not be parsed at all
	CheckDupName     = "dupname"     // same net name defined more than once
	CheckMultiDriven = "multidriven" // net driven by both an INPUT and a gate
	CheckUndriven    = "undriven"    // fanin or OUTPUT references an undefined net
	CheckArity       = "arity"       // fanin count illegal for the gate function
	CheckCycle       = "cycle"       // combinational cycle
	CheckDangling    = "dangling"    // non-output gate drives nothing
	CheckUnmapped    = "unmapped"    // logic gate with no bound library cell
	CheckSizeIdx     = "sizeidx"     // drive-strength index outside the cell group
)

// Severity levels. Errors make a design unusable (rejected by the CLIs'
// -lint gate, sstad and the design cache); warnings flag suspicious but
// analyzable structure — dead logic above all — and are reported without
// failing. The distinction matters because the built-in c432-family
// generators carry one historically dead buffer each, and flagging those
// as fatal would reject every round-tripped benchmark netlist.
const (
	SeverityError   = "error"
	SeverityWarning = "warning"
)

// Diagnostic is one structural problem. Gate names the offending gate or
// net when there is one; Line is the source line for raw-netlist checks
// (0 when unknown, e.g. for checks on already-built circuits). Col is the
// 1-based column for diagnostics produced by the streaming parsers
// (internal/ingest), which know positions to the byte; line-oriented
// checks leave it 0.
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
		fmt.Fprintf(&b, "line %d: ", d.Line)
	}
	sev := d.Severity
	if sev == "" {
		sev = SeverityError
	}
	b.WriteString(sev)
	b.WriteString(": ")
	b.WriteString(d.Check)
	b.WriteString(": ")
	b.WriteString(d.Msg)
	return b.String()
}

// HasErrors reports whether any diagnostic is error-severity (an empty
// Severity counts as an error, so a zero-valued Diagnostic fails safe).
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity != SeverityWarning {
			return true
		}
	}
	return false
}

// Errors returns only the error-severity diagnostics.
func Errors(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Severity != SeverityWarning {
			out = append(out, d)
		}
	}
	return out
}

// Format renders diagnostics one per line, ready for CLI stderr.
func Format(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// LintReader parses a .bench stream tolerantly and lints the raw netlist.
// A syntax error yields a single CheckSyntax diagnostic; otherwise all
// structural checks run and every finding is returned.
func LintReader(r io.Reader, name string) []Diagnostic {
	nl, err := benchfmt.ParseNetlist(r, name)
	if err != nil {
		return []Diagnostic{{Check: CheckSyntax, Severity: SeverityError, Msg: err.Error()}}
	}
	return LintNetlist(nl)
}

// LintText is LintReader over an in-memory netlist.
func LintText(src, name string) []Diagnostic {
	return LintReader(strings.NewReader(src), name)
}

// LintNetlist runs every structural check on a raw netlist and returns
// all findings in deterministic (file) order: name collisions first, then
// undriven references, cycles, and dangling gates.
func LintNetlist(nl *benchfmt.Netlist) []Diagnostic {
	var diags []Diagnostic

	// Name table: first definition of each net wins; later ones are
	// dupname (same class) or multidriven (INPUT vs gate) findings.
	defs := make(map[string]netDef, len(nl.Inputs)+len(nl.Gates))
	for _, p := range nl.Inputs {
		if prev, ok := defs[p.Name]; ok {
			check := CheckDupName
			if prev.gateIdx >= 0 {
				check = CheckMultiDriven
			}
			diags = append(diags, Diagnostic{
				Check: check, Severity: SeverityError, Gate: p.Name, Line: p.Line,
				Msg: fmt.Sprintf("net %q already defined at line %d", p.Name, prev.line),
			})
			continue
		}
		defs[p.Name] = netDef{line: p.Line, gateIdx: -1}
	}
	for i, g := range nl.Gates {
		if prev, ok := defs[g.Name]; ok {
			check := CheckDupName
			if prev.gateIdx < 0 {
				check = CheckMultiDriven
			}
			diags = append(diags, Diagnostic{
				Check: check, Severity: SeverityError, Gate: g.Name, Line: g.Line,
				Msg: fmt.Sprintf("net %q already defined at line %d", g.Name, prev.line),
			})
			continue
		}
		defs[g.Name] = netDef{line: g.Line, gateIdx: i}
	}

	// Undriven: fanin or OUTPUT references with no definition anywhere in
	// the file. One diagnostic per (gate, net) reference.
	for _, g := range nl.Gates {
		for _, f := range g.Fanins {
			if _, ok := defs[f]; !ok {
				diags = append(diags, Diagnostic{
					Check: CheckUndriven, Severity: SeverityError, Gate: g.Name, Line: g.Line,
					Msg: fmt.Sprintf("gate %q references undriven net %q", g.Name, f),
				})
			}
		}
	}
	outSet := make(map[string]bool, len(nl.Outputs))
	for _, o := range nl.Outputs {
		if outSet[o.Name] {
			diags = append(diags, Diagnostic{
				Check: CheckDupName, Severity: SeverityError, Gate: o.Name, Line: o.Line,
				Msg: fmt.Sprintf("OUTPUT(%s) declared more than once", o.Name),
			})
			continue
		}
		outSet[o.Name] = true
		if _, ok := defs[o.Name]; !ok {
			diags = append(diags, Diagnostic{
				Check: CheckUndriven, Severity: SeverityError, Gate: o.Name, Line: o.Line,
				Msg: fmt.Sprintf("OUTPUT(%s) references undriven net", o.Name),
			})
		}
	}

	// Arity: fanin counts the circuit layer would reject (NOT/BUFF take
	// exactly one input; the parser already guarantees at least one).
	for _, g := range nl.Gates {
		min, max := g.Fn.FaninBounds()
		if len(g.Fanins) < min || (max >= 0 && len(g.Fanins) > max) {
			diags = append(diags, Diagnostic{
				Check: CheckArity, Severity: SeverityError, Gate: g.Name, Line: g.Line,
				Msg: fmt.Sprintf("gate %q (%s) has %d fanins", g.Name, g.Fn, len(g.Fanins)),
			})
		}
	}

	// Cycles: Tarjan SCC over the gate-definition graph (INPUT ports
	// cannot be on a cycle). One diagnostic per cycle, listing members.
	diags = append(diags, findCycles(nl, defs)...)

	// Dangling: a defined gate whose output is never read and never
	// declared OUTPUT is dead logic — almost always a netlist bug.
	used := make(map[string]bool)
	for _, g := range nl.Gates {
		for _, f := range g.Fanins {
			used[f] = true
		}
	}
	for _, g := range nl.Gates {
		if !used[g.Name] && !outSet[g.Name] {
			diags = append(diags, Diagnostic{
				Check: CheckDangling, Severity: SeverityWarning, Gate: g.Name, Line: g.Line,
				Msg: fmt.Sprintf("gate %q drives nothing and is not an OUTPUT", g.Name),
			})
		}
	}
	return diags
}

// netDef records where a net was first defined: gateIdx indexes
// nl.Gates, or is -1 for INPUT ports.
type netDef struct {
	line    int
	gateIdx int
}

// findCycles reports one CheckCycle diagnostic per strongly connected
// component with more than one gate (or a self-loop), using Tarjan's
// algorithm with an explicit stack.
func findCycles(nl *benchfmt.Netlist, defs map[string]netDef) []Diagnostic {
	n := len(nl.Gates)
	adj := make([][]int, n) // adj[j] = gates reading gate j's output
	selfLoop := make([]bool, n)
	for i, g := range nl.Gates {
		for _, f := range g.Fanins {
			d, ok := defs[f]
			if !ok || d.gateIdx < 0 {
				continue
			}
			if d.gateIdx == i {
				selfLoop[i] = true
			}
			adj[d.gateIdx] = append(adj[d.gateIdx], i)
		}
	}

	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var stack, comps []int
	compOf := make([][]int, 0)
	next := 0

	type frame struct{ v, ei int }
	var diags []Diagnostic
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames := []frame{{root, 0}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(adj[f.v]) {
				w := adj[f.v][f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// Pop frame; root of an SCC when low == index.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] != index[v] {
				continue
			}
			comps = comps[:0]
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comps = append(comps, w)
				if w == v {
					break
				}
			}
			if len(comps) > 1 || selfLoop[v] {
				compOf = append(compOf, append([]int(nil), comps...))
			}
		}
	}
	for _, comp := range compOf {
		// Report in file order with the earliest gate as the anchor.
		first := comp[0]
		names := make([]string, 0, len(comp))
		for _, i := range comp {
			if nl.Gates[i].Line < nl.Gates[first].Line {
				first = i
			}
		}
		for _, i := range comp {
			names = append(names, nl.Gates[i].Name)
		}
		g := nl.Gates[first]
		diags = append(diags, Diagnostic{
			Check: CheckCycle, Severity: SeverityError, Gate: g.Name, Line: g.Line,
			Msg: fmt.Sprintf("combinational cycle through %s", strings.Join(names, ", ")),
		})
	}
	return diags
}

// LintCircuit checks an already-built circuit: combinational cycles (a
// built circuit is normally acyclic because Validate rejects cycles, but
// composed circuits may bypass Validate) and dangling non-output gates.
func LintCircuit(c *circuit.Circuit) []Diagnostic {
	var diags []Diagnostic
	if _, err := c.TopoOrder(); err != nil {
		diags = append(diags, Diagnostic{Check: CheckCycle, Severity: SeverityError, Msg: err.Error()})
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Fn.IsLogic() && len(g.Fanout) == 0 && !c.IsOutput(g.ID) {
			diags = append(diags, Diagnostic{
				Check: CheckDangling, Severity: SeverityWarning, Gate: g.Name,
				Msg: fmt.Sprintf("gate %q drives nothing and is not an output", g.Name),
			})
		}
	}
	return diags
}

// LintDesign runs the circuit checks plus mapping checks: every logic
// gate must be bound to a library cell, with a drive-strength index
// inside its cell group.
func LintDesign(d *synth.Design) []Diagnostic {
	diags := LintCircuit(d.Circuit)
	for i := range d.Circuit.Gates {
		g := &d.Circuit.Gates[i]
		if !g.Fn.IsLogic() {
			continue
		}
		if g.CellRef < 0 {
			diags = append(diags, Diagnostic{
				Check: CheckUnmapped, Severity: SeverityError, Gate: g.Name,
				Msg: fmt.Sprintf("gate %q has no bound library cell", g.Name),
			})
			continue
		}
		if ns := d.Lib.NumSizes(d.Kind(g.ID)); g.SizeIdx < 0 || g.SizeIdx >= ns {
			diags = append(diags, Diagnostic{
				Check: CheckSizeIdx, Severity: SeverityError, Gate: g.Name,
				Msg: fmt.Sprintf("gate %q size index %d outside cell group [0, %d)", g.Name, g.SizeIdx, ns),
			})
		}
	}
	return diags
}
