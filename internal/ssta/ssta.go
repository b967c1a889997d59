// Package ssta implements FULLSSTA, the paper's accurate statistical
// timing engine (section 4.2, after Liou et al., DAC 2001): arrival times
// are discrete PDFs propagated through the circuit with Sum and Max
// operators at a user-controlled sampling rate (10-15 points per PDF).
//
// Besides the output PDFs, the engine records the mean and variance of
// the arrival time at every node — exactly what the paper stores for the
// fast inner engine (FASSTA) and the WNSS path tracer to consume.
//
// There is one engine (Flat, flat.go): every node PDF lives in a
// dpdf.Arena, and one per-gate step serves the full level-ordered
// recompute, the dirty-cone repair after resizes (incremental.go) and
// the batched what-if overlay (batch.go). Propagation is levelized and
// optionally parallel: gates within one topological level have no data
// dependencies on each other (every fanin lives at a strictly lower
// level), so a level-barrier schedule computes them concurrently with
// bit-identical results — each gate's PDF depends only on its fanin
// PDFs and its own delay, never on evaluation order.
package ssta

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/dpdf"
	"repro/internal/normal"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/variation"
)

// Options controls the engine.
type Options struct {
	// Points is the PDF sampling rate; 0 means dpdf.DefaultPoints (12,
	// the middle of the paper's 10-15 range).
	Points int
	// Workers is the number of goroutines propagating PDFs within each
	// topological level — in the full analysis, in the dirty-cone repair
	// of Resize/ResizeAll, and inside each BatchWhatIf candidate
	// that has more than one worker to itself (levels narrower than a
	// small fixed cutoff always run serially). 0 means one per
	// available CPU (runtime.GOMAXPROCS), 1 forces fully serial
	// propagation with no goroutines. Any value produces bit-identical
	// results, eval counters and journals; only the wall time changes.
	Workers int
}

func (o Options) points() int {
	if o.Points <= 0 {
		return dpdf.DefaultPoints
	}
	return o.Points
}

// Result is one FULLSSTA analysis. Slices are indexed by GateID.
//
// CircuitPDF and the PDFs Arrival returns are views into the engine's
// arena, not copies. A Result from Analyze owns its arena and stays
// valid for its whole life; the Result of a live engine (Flat.Result)
// is updated in place by every resize, so callers must not keep its
// PDFs across mutating calls.
type Result struct {
	// STA is the nominal deterministic analysis the statistical one is
	// built on (frozen slews and mean delays).
	STA *sta.Result
	// Node holds the arrival moments at every node (mean/variance), the
	// values FASSTA and the WNSS tracer read.
	Node []normal.Moments
	// GateDelay holds the delay RV moments of every logic gate.
	GateDelay []normal.Moments
	// CircuitPDF is the PDF of the circuit delay: Max over all POs.
	CircuitPDF dpdf.PDF
	// Mean and Sigma are the circuit-delay moments (of CircuitPDF).
	Mean, Sigma float64

	arena *dpdf.Arena // every node's arrival PDF, slot = GateID
}

// Arrival returns the full arrival-time PDF at node id, a view into the
// engine's arena.
func (r *Result) Arrival(id circuit.GateID) dpdf.PDF { return r.arena.View(int(id)) }

// Analyze runs FULLSSTA over the design under the variation model: it
// builds the engine and returns its Result, with no per-node copy.
func Analyze(d *synth.Design, vm *variation.Model, opts Options) *Result {
	return NewFlat(d, vm, opts).r
}

// timingView reads per-node timing: a Result, or a what-if overlay that
// shadows the engine's Result.
type timingView interface {
	staArrival(id circuit.GateID) float64
	arrival(id circuit.GateID) dpdf.PDF
	moments(id circuit.GateID) normal.Moments
}

func (r *Result) staArrival(id circuit.GateID) float64     { return r.STA.Arrival[id] }
func (r *Result) arrival(id circuit.GateID) dpdf.PDF       { return r.Arrival(id) }
func (r *Result) moments(id circuit.GateID) normal.Moments { return r.Node[id] }

// worstOutput scores every primary output by the paper's objective
// (eq. 7), mean + lambda*sigma, and returns the worst one and its score
// (None and -Inf when there are no outputs).
func worstOutput(outputs []circuit.GateID, v timingView, lambda float64) (circuit.GateID, float64) {
	worst, worstCost := circuit.None, math.Inf(-1)
	for _, po := range outputs {
		m := v.moments(po)
		if c := m.Mean + lambda*m.Sigma(); c > worstCost {
			worst, worstCost = po, c
		}
	}
	return worst, worstCost
}

// cost is eq. 7 at the circuit level: the worst output's score, or 0
// for a circuit without outputs.
func cost(outputs []circuit.GateID, v timingView, lambda float64) float64 {
	if len(outputs) == 0 {
		return 0
	}
	_, c := worstOutput(outputs, v, lambda)
	return c
}

// Cost evaluates the paper's objective (eq. 7) at the circuit level:
// max over primary outputs of mean_i + lambda * sigma_i.
func (r *Result) Cost(d *synth.Design, lambda float64) float64 {
	return cost(d.Circuit.Outputs, r, lambda)
}

// WorstOutput returns the PO with the highest mean + lambda*sigma — the
// starting point of the WNSS trace.
func (r *Result) WorstOutput(d *synth.Design, lambda float64) circuit.GateID {
	po, _ := worstOutput(d.Circuit.Outputs, r, lambda)
	return po
}

// Yield returns the probability that the circuit delay meets the period T
// (the Figure 1 interpretation: the fraction of manufactured units
// functional at T).
func (r *Result) Yield(T float64) float64 {
	return r.CircuitPDF.CDF(T)
}
