package ssta

import (
	"repro/internal/circuit"
	"repro/internal/dpdf"
	"repro/internal/normal"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/variation"
)

// oracle is the test-only FULLSSTA reference: a topological propagation
// over heap PDFs, held in its own slice, built only from the allocating
// package-level kernels and the deterministic sta.Analyze. The arena
// engine must match it bit for bit. The finished PDFs are copied into
// the Result's arena, so Result.Arrival reads them.
func oracle(d *synth.Design, vm *variation.Model, pts int) *Result {
	c := d.Circuit
	n := c.NumGates()
	nominal := sta.Analyze(d)
	r := &Result{
		STA:       nominal,
		Node:      make([]normal.Moments, n),
		GateDelay: make([]normal.Moments, n),
		arena:     dpdf.NewArena(n, pts),
	}
	arrival := make([]dpdf.PDF, n)
	for _, id := range c.MustTopoOrder() {
		g := c.Gate(id)
		if g.Fn == circuit.Input {
			arrival[id] = dpdf.Point(0)
			continue
		}
		fanins := make([]dpdf.PDF, len(g.Fanin))
		for i, fid := range g.Fanin {
			fanins[i] = arrival[fid]
		}
		mean := nominal.Delay[id]
		sigma := vm.Sigma(d.Cell(id), mean)
		r.GateDelay[id] = normal.Moments{Mean: mean, Var: sigma * sigma}
		arrival[id] = dpdf.Sum(dpdf.MaxN(fanins, pts), dpdf.FromNormal(mean, sigma, pts), pts)
		r.Node[id] = arrival[id].Moments()
	}
	for id, p := range arrival {
		r.arena.Set(id, p)
	}
	pos := make([]dpdf.PDF, len(c.Outputs))
	for i, po := range c.Outputs {
		pos[i] = arrival[po]
	}
	r.CircuitPDF = dpdf.MaxN(pos, pts)
	r.Mean, r.Sigma = r.CircuitPDF.Mean(), r.CircuitPDF.Sigma()
	return r
}
