// Package benchfmt reads and writes the ISCAS .bench netlist format:
//
//	# comment
//	INPUT(G1)
//	OUTPUT(G17)
//	G10 = NAND(G1, G3)
//	G17 = NOT(G10)
//
// Only combinational circuits are supported; DFF lines are rejected with a
// clear error (the paper restricts itself to combinational circuits).
// ParseNetlistOpts is the governed reader: it runs under the same
// internal/ingest budget envelope as the Verilog and Liberty parsers.
package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/circuit"
)

var fnByBenchName = map[string]circuit.Fn{
	"AND":  circuit.And,
	"NAND": circuit.Nand,
	"OR":   circuit.Or,
	"NOR":  circuit.Nor,
	"XOR":  circuit.Xor,
	"XNOR": circuit.Xnor,
	"NOT":  circuit.Not,
	"INV":  circuit.Not,
	"BUF":  circuit.Buf,
	"BUFF": circuit.Buf,
}

var benchNameByFn = map[circuit.Fn]string{
	circuit.And: "AND", circuit.Nand: "NAND",
	circuit.Or: "OR", circuit.Nor: "NOR",
	circuit.Xor: "XOR", circuit.Xnor: "XNOR",
	circuit.Not: "NOT", circuit.Buf: "BUFF",
}

// Parse reads a .bench netlist with no resource budget and builds it.
// The circuit name is taken from the caller since the format has no name
// line. It is the strict path: any syntax problem (all of them, as one
// *ingest.Error) or the first semantic problem aborts with an error. For
// a complete structural diagnosis of a bad netlist, feed ParseNetlist's
// raw form to internal/circuitlint instead.
func Parse(r io.Reader, name string) (*circuit.Circuit, error) {
	nl, err := ParseNetlist(r, name)
	if err != nil {
		return nil, err
	}
	return nl.Build()
}

// Write emits the circuit in .bench format. Gates are written in
// topological order so the file is also human-readable as a levelized
// netlist. Constants are not representable in .bench and cause an error.
func Write(w io.Writer, c *circuit.Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s: %d inputs, %d outputs, %d gates\n",
		c.Name, len(c.Inputs()), len(c.Outputs), c.NumLogicGates())
	for _, id := range c.Inputs() {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Gate(id).Name)
	}
	// Stable output order: declaration order.
	for _, id := range c.Outputs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Gate(id).Name)
	}
	topo, err := c.TopoOrder()
	if err != nil {
		return err
	}
	for _, id := range topo {
		g := c.Gate(id)
		if !g.Fn.IsLogic() {
			if g.Fn == circuit.Const0 || g.Fn == circuit.Const1 {
				return fmt.Errorf("benchfmt: constant gate %q not representable in .bench", g.Name)
			}
			continue
		}
		fnName, ok := benchNameByFn[g.Fn]
		if !ok {
			return fmt.Errorf("benchfmt: function %s of gate %q not representable", g.Fn, g.Name)
		}
		names := make([]string, len(g.Fanin))
		for i, s := range g.Fanin {
			names[i] = c.Gate(s).Name
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", g.Name, fnName, strings.Join(names, ", "))
	}
	return bw.Flush()
}
