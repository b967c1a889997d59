package fassta

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/normal"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/variation"
)

// GlobalResult is a whole-circuit moments-only analysis: what FASSTA
// would produce if run on the entire netlist rather than a subcircuit.
// It exists for the engine-accuracy experiment and the ablation benches;
// the optimizer itself only ever runs FASSTA on subcircuits.
type GlobalResult struct {
	STA         *sta.Result
	Node        []normal.Moments
	Mean, Sigma float64
}

// AnalyzeGlobal propagates delay moments over the whole design. With
// approx=true it uses the paper's fast max (dominance shortcuts plus the
// quadratic erf approximation); with approx=false it uses exact Clark
// formulas everywhere, isolating the cost/benefit of the approximation.
func AnalyzeGlobal(d *synth.Design, vm *variation.Model, approx bool) *GlobalResult {
	nominal := sta.Analyze(d)
	c := d.Circuit
	r := &GlobalResult{STA: nominal, Node: make([]normal.Moments, c.NumGates())}
	maxFn := normal.MaxApprox
	if !approx {
		maxFn = normal.MaxExact
	}
	for _, id := range c.MustTopoOrder() {
		g := c.Gate(id)
		if g.Fn == circuit.Input {
			continue
		}
		var arr normal.Moments
		for i, f := range g.Fanin {
			if i == 0 {
				arr = r.Node[f]
			} else {
				arr = maxFn(arr, r.Node[f])
			}
		}
		mean := nominal.Delay[id]
		sigma := vm.Sigma(d.Cell(id), mean)
		r.Node[id] = arr.Add(normal.Moments{Mean: mean, Var: sigma * sigma})
	}
	var circ normal.Moments
	first := true
	for _, po := range c.Outputs {
		if first {
			circ = r.Node[po]
			first = false
			continue
		}
		circ = maxFn(circ, r.Node[po])
	}
	r.Mean = circ.Mean
	r.Sigma = circ.Sigma()
	return r
}

// CostExact is Subcircuit.Cost with the exact Clark max substituted for
// the fast approximation — the ablation comparator for the paper's
// section 4.3 design choice.
func (s *Subcircuit) CostExact(sizeIdx int, lambda float64) float64 {
	return s.costWith(sizeIdx, lambda, normal.MaxExact)
}

// costWith is the shared moment propagation parameterized by the max
// operator. Subcircuit.Cost delegates here with the fast operator.
//
// Inside the subcircuit everything is re-derived from the library tables
// — delays AND slews — with frozen boundary conditions from the last
// full analysis. Re-propagating slews matters: upsizing the target makes
// its drivers' output transitions slower, which slows every downstream
// gate; with frozen slews that cost is invisible and the optimizer
// systematically underprices upsizing.
func (s *Subcircuit) costWith(sizeIdx int, lambda float64, maxFn func(a, b normal.Moments) normal.Moments) float64 {
	c := s.d.Circuit
	curCell := s.d.Cell(s.Target)
	candCell := s.d.CellAt(s.Target, sizeIdx)
	capDelta := candCell.InputCap - curCell.InputCap

	worst := math.Inf(-1)
	p := 0
	for i, id := range s.Members {
		g := c.Gate(id)
		var arr normal.Moments
		inSlew := 0.0
		for fi, f := range g.Fanin {
			var m normal.Moments
			var slew float64
			if j := s.pins[p]; j >= 0 {
				m = s.arrival[j]
				slew = s.slew[j]
			} else {
				m = s.full.Node[f]
				slew = s.full.STA.Slew[f]
			}
			p++
			if slew > inSlew {
				inSlew = slew
			}
			if fi == 0 {
				arr = m
			} else {
				arr = maxFn(arr, m)
			}
		}
		load := s.baseLoad[i] + float64(s.drivesTarget[i])*capDelta
		cell := candCell
		if id != s.Target {
			cell = s.d.Cell(id)
		}
		mean := cell.Delay.Lookup(inSlew, load)
		s.slew[i] = cell.OutSlew.Lookup(inSlew, load)
		sigma := s.vm.Sigma(cell, mean)
		s.arrival[i] = arr.Add(normal.Moments{Mean: mean, Var: sigma * sigma})
	}
	for k, i := range s.outIdx {
		m := s.arrival[i]
		completed := math.Sqrt(m.Var + s.restVar[k])
		if cost := m.Mean + lambda*completed; cost > worst {
			worst = cost
		}
	}
	return worst
}
