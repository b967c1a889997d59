// Package dot renders circuits as Graphviz DOT, optionally colored by a
// per-gate scalar (slack, criticality, sigma contribution) so analysis
// results can be eyeballed with any DOT viewer.
package dot

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"repro/internal/circuit"
)

// Options controls the rendering.
type Options struct {
	// Heat maps each gate to a scalar in [0, 1] used as fill intensity
	// (1 = hottest). Nil disables coloring.
	Heat []float64
	// Highlight marks a set of gates (e.g. the WNSS path) with a thick
	// red border.
	Highlight []circuit.GateID
	// RankLR lays levels left-to-right instead of top-down.
	RankLR bool
}

// Write emits the circuit as a DOT digraph.
func Write(w io.Writer, c *circuit.Circuit, opts Options) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n", c.Name)
	if opts.RankLR {
		fmt.Fprintf(bw, "  rankdir=LR;\n")
	}
	fmt.Fprintf(bw, "  node [shape=box, style=filled, fillcolor=white, fontsize=10];\n")
	hi := make(map[circuit.GateID]bool, len(opts.Highlight))
	for _, id := range opts.Highlight {
		hi[id] = true
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		attrs := fmt.Sprintf("label=%q", g.Name+"\\n"+g.Fn.String())
		switch {
		case g.Fn == circuit.Input:
			attrs += ", shape=invtriangle, fillcolor=lightblue"
		case c.IsOutput(g.ID):
			attrs += ", peripheries=2"
		}
		if opts.Heat != nil && int(g.ID) < len(opts.Heat) && g.Fn.IsLogic() {
			h := clamp01(opts.Heat[g.ID])
			// White (cold) to saturated orange-red (hot) via HSV value.
			attrs += fmt.Sprintf(", fillcolor=\"0.05 %.3f 1.0\"", h)
		}
		if hi[g.ID] {
			attrs += ", color=red, penwidth=3"
		}
		fmt.Fprintf(bw, "  n%d [%s];\n", g.ID, attrs)
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		for _, f := range g.Fanin {
			fmt.Fprintf(bw, "  n%d -> n%d;\n", f, g.ID)
		}
	}
	fmt.Fprintf(bw, "}\n")
	return bw.Flush()
}

// NormalizeHeat rescales arbitrary non-negative scores into [0, 1] for
// Options.Heat (max maps to 1; all-zero stays zero).
func NormalizeHeat(scores []float64) []float64 {
	max := 0.0
	for _, s := range scores {
		if s > max {
			max = s
		}
	}
	out := make([]float64, len(scores))
	if max <= 0 {
		return out
	}
	for i, s := range scores {
		out[i] = clamp01(s / max)
	}
	return out
}

func clamp01(x float64) float64 {
	if math.IsNaN(x) || x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
