// Package sdf writes Standard Delay Format (SDF 3.0) files annotating
// every mapped gate with its statistical delay corners: the
// (min:typ:max) triple is (mu - 3 sigma, mu, mu + 3 sigma) from the
// current sizing, the deterministic analysis and the variation model.
// This is how the statistical results of this module hand off to a
// conventional corner-based simulation or sign-off flow. SDF is an
// output only: no door of the module reads it back.
package sdf

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/variation"
)

// Write emits the design's delays as SDF. kSigma sets the corner width
// in standard deviations (3 is conventional; 0 emits typ-only triples).
func Write(w io.Writer, d *synth.Design, vm *variation.Model, kSigma float64) error {
	if kSigma < 0 {
		return fmt.Errorf("sdf: negative corner width %g", kSigma)
	}
	nominal := sta.Analyze(d)
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "(DELAYFILE\n")
	fmt.Fprintf(bw, "  (SDFVERSION \"3.0\")\n")
	fmt.Fprintf(bw, "  (DESIGN \"%s\")\n", d.Circuit.Name)
	fmt.Fprintf(bw, "  (TIMESCALE 1ps)\n")
	for _, id := range d.Circuit.MustTopoOrder() {
		g := d.Circuit.Gate(id)
		if !g.Fn.IsLogic() || g.CellRef < 0 {
			continue
		}
		cell := d.Cell(id)
		mu := nominal.Delay[id]
		sigma := vm.Sigma(cell, mu)
		lo := mu - kSigma*sigma
		if lo < 0 {
			lo = 0
		}
		hi := mu + kSigma*sigma
		fmt.Fprintf(bw, "  (CELL\n")
		fmt.Fprintf(bw, "    (CELLTYPE \"%s\")\n", cell.Name)
		fmt.Fprintf(bw, "    (INSTANCE %s)\n", g.Name)
		fmt.Fprintf(bw, "    (DELAY (ABSOLUTE\n")
		for i := 0; i < cell.Kind.Inputs(); i++ {
			fmt.Fprintf(bw, "      (IOPATH %c Y (%.3f:%.3f:%.3f) (%.3f:%.3f:%.3f))\n",
				'A'+i, lo, mu, hi, lo, mu, hi)
		}
		fmt.Fprintf(bw, "    ))\n")
		fmt.Fprintf(bw, "  )\n")
	}
	fmt.Fprintf(bw, ")\n")
	return bw.Flush()
}
