// Package sta is the deterministic static timing analyzer: it propagates
// slews and arrival times through a mapped design using the library's
// NLDM tables, computes required times and slacks against a clock period,
// and traces the worst-negative-slack (WNS) critical path.
//
// Its per-gate nominal delays are also the means of the delay random
// variables used by the statistical engines (ssta, fassta): slew is
// propagated deterministically and statistics apply to delay, matching
// the paper's model where every gate delay is one normally distributed
// random variable.
package sta

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/synth"
)

// Result holds the outcome of one deterministic timing analysis. Slices
// are indexed by GateID.
type Result struct {
	Arrival []float64 // worst arrival time at the gate output, ps
	Slew    []float64 // transition at the gate output, ps
	Delay   []float64 // gate propagation delay under its load, ps
	InSlew  []float64 // worst input transition seen by the gate, ps

	MaxArrival float64        // circuit delay: max arrival over POs
	WorstPO    circuit.GateID // PO achieving MaxArrival
}

// Analyze runs a full forward propagation over the design.
func Analyze(d *synth.Design) *Result {
	c := d.Circuit
	n := c.NumGates()
	r := &Result{
		Arrival: make([]float64, n),
		Slew:    make([]float64, n),
		Delay:   make([]float64, n),
		InSlew:  make([]float64, n),
		WorstPO: circuit.None,
	}
	for _, id := range c.MustTopoOrder() {
		g := c.Gate(id)
		if g.Fn == circuit.Input {
			// Finite source drive: a loaded input arrives later.
			r.Arrival[id] = d.Lib.PrimaryInputRes * d.Load(id)
			r.Slew[id] = d.Lib.PrimaryInputSlew
			continue
		}
		arr, slew := worstFanin(r, g)
		r.InSlew[id] = slew
		cell := d.Cell(id)
		load := d.Load(id)
		r.Delay[id] = cell.Delay.Lookup(slew, load)
		r.Slew[id] = cell.OutSlew.Lookup(slew, load)
		r.Arrival[id] = arr + r.Delay[id]
	}
	r.MaxArrival = math.Inf(-1)
	for _, po := range c.Outputs {
		if r.Arrival[po] > r.MaxArrival {
			r.MaxArrival = r.Arrival[po]
			r.WorstPO = po
		}
	}
	if len(c.Outputs) == 0 {
		r.MaxArrival = 0
	}
	return r
}

// worstFanin returns the max fanin arrival and max fanin slew.
func worstFanin(r *Result, g *circuit.Gate) (arr, slew float64) {
	for _, f := range g.Fanin {
		if r.Arrival[f] > arr {
			arr = r.Arrival[f]
		}
		if r.Slew[f] > slew {
			slew = r.Slew[f]
		}
	}
	return arr, slew
}

// CriticalPath traces the WNS path backward from the worst PO, at each
// gate following the fanin with the latest arrival time. The returned
// path runs input-to-output and contains only logic gates.
func (r *Result) CriticalPath(d *synth.Design) []circuit.GateID {
	c := d.Circuit
	if r.WorstPO == circuit.None {
		return nil
	}
	var rev []circuit.GateID
	id := r.WorstPO
	for {
		g := c.Gate(id)
		if g.Fn == circuit.Input {
			break
		}
		rev = append(rev, id)
		best := circuit.None
		bestArr := math.Inf(-1)
		for _, f := range g.Fanin {
			if r.Arrival[f] > bestArr {
				bestArr = r.Arrival[f]
				best = f
			}
		}
		if best == circuit.None {
			break
		}
		id = best
	}
	// Reverse to input-to-output order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
