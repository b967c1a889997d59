package repro

import (
	"fmt"
	"io"
	"math"

	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/crit"
	"repro/internal/dot"
	"repro/internal/sdf"
	"repro/internal/ssta"
	"repro/internal/sta"
	"repro/internal/wnss"
)

// PathInfo is one enumerated timing path through the design.
type PathInfo struct {
	Source  string   // launching primary input
	Gates   []string // logic gates, input to output
	Arrival float64  // endpoint arrival, ps
}

// WorstPaths enumerates the k slowest deterministic paths, slowest first.
func (d *Design) WorstPaths(k int) []PathInfo {
	r := sta.Analyze(d.d)
	paths := r.KWorstPaths(d.d, k)
	out := make([]PathInfo, len(paths))
	for i, p := range paths {
		info := PathInfo{Arrival: p.Arrival}
		if p.Source != circuit.None {
			info.Source = d.d.Circuit.Gate(p.Source).Name
		}
		info.Gates = make([]string, len(p.Gates))
		for j, g := range p.Gates {
			info.Gates[j] = d.d.Circuit.Gate(g).Name
		}
		out[i] = info
	}
	return out
}

// GateCriticality is one gate's probability of lying on the critical
// path under process variation.
type GateCriticality struct {
	Gate        string
	Criticality float64
}

// Criticality returns the n statistically most critical gates, using the
// Monte-Carlo estimator when trials > 0 and the fast analytic
// approximation otherwise.
func (d *Design) Criticality(n, trials int, seed int64) ([]GateCriticality, error) {
	var res *crit.Result
	if trials > 0 {
		var err error
		res, err = crit.MonteCarlo(d.d, d.vm, trials, seed)
		if err != nil {
			return nil, err
		}
	} else {
		full := ssta.Analyze(d.d, d.vm, ssta.Options{})
		res = crit.Analytic(d.d, full)
	}
	top := res.Top(n)
	out := make([]GateCriticality, 0, len(top))
	for _, id := range top {
		if !d.d.Circuit.Gate(id).Fn.IsLogic() {
			continue
		}
		out = append(out, GateCriticality{
			Gate:        d.d.Circuit.Gate(id).Name,
			Criticality: res.Criticality[id],
		})
	}
	return out, nil
}

// SaveSDF writes the design's statistical delay corners as an SDF 3.0
// file with (mu - k sigma : mu : mu + k sigma) triples.
func (d *Design) SaveSDF(w io.Writer, kSigma float64) error {
	return sdf.Write(w, d.d, d.vm, kSigma)
}

// SaveDOT renders the circuit as Graphviz DOT, colored by analytic gate
// criticality with the WNSS path highlighted — the visual counterpart of
// the paper's Figure 3.
func (d *Design) SaveDOT(w io.Writer, lambda float64) error {
	if err := validateLambda(lambda); err != nil {
		return err
	}
	full := ssta.Analyze(d.d, d.vm, ssta.Options{})
	heat := crit.Analytic(d.d, full).Criticality
	return dot.Write(w, d.d.Circuit, dot.Options{
		Heat:      dot.NormalizeHeat(heat),
		Highlight: wnss.Trace(d.d, full, d.vm, lambda),
		RankLR:    true,
	})
}

// ConstrainedResult reports an OptimizeConstrained run.
type ConstrainedResult struct {
	Met        bool    // final design meets the mean budget
	LambdaUsed float64 // weight of the kept sizing (-1 = the input sizing)
	OptResult
}

// OptimizeConstrained minimizes the delay sigma subject to a statistical
// mean budget (ps), the paper's constrained mode. The design is modified
// in place.
func (d *Design) OptimizeConstrained(maxMean float64) (ConstrainedResult, error) {
	if math.IsNaN(maxMean) || math.IsInf(maxMean, 0) {
		return ConstrainedResult{}, fmt.Errorf("repro: non-finite mean budget %g", maxMean)
	}
	r, err := core.MinimizeSigmaUnderDelay(d.d, d.vm, maxMean, core.Options{})
	if err != nil {
		return ConstrainedResult{}, err
	}
	return ConstrainedResult{
		Met:        r.Met,
		LambdaUsed: r.LambdaUsed,
		OptResult: OptResult{
			MeanBefore: r.Initial.Mean, MeanAfter: r.Final.Mean,
			SigmaBefore: r.Initial.Sigma, SigmaAfter: r.Final.Sigma,
			AreaBefore: r.Initial.Area, AreaAfter: r.Final.Area,
		},
	}, nil
}

// WhatIfEdit names one gate resize for WhatIf.
type WhatIfEdit struct {
	Gate string // gate name, as written in the netlist
	Size int    // target size index (0 = minimum)
}

// WhatIfReport summarizes an incremental what-if analysis: the circuit
// moments before and after the edits, and how much of the circuit the
// dirty-cone repair actually had to re-evaluate.
type WhatIfReport struct {
	MeanBefore, SigmaBefore float64
	MeanAfter, SigmaAfter   float64
	// NodesRepaired counts the per-gate PDF evaluations the incremental
	// repair performed; a from-scratch analysis evaluates every one of
	// Gates. The results are bit-identical either way.
	NodesRepaired int64
	Gates         int
}

// WhatIf evaluates the named resizes as one hypothetical sizing: it
// reports the statistical impact and the repair cost without ever moving
// the design, which is unchanged when it returns. Values are
// bit-identical to actually applying the edits and re-analyzing.
func (d *Design) WhatIf(edits []WhatIfEdit, opts RunOptions) (WhatIfReport, error) {
	if err := opts.Validate(); err != nil {
		return WhatIfReport{}, err
	}
	reps, err := d.WhatIfBatch([][]WhatIfEdit{edits}, opts)
	if err != nil {
		return WhatIfReport{}, err
	}
	return reps[0], nil
}

// WhatIfBatch evaluates K candidate sizings — each a list of edits
// against the design's current sizes — in one pass over the flat-arena
// FULLSSTA engine (ssta.Flat.BatchWhatIf): the clean analysis is
// computed once and every candidate repairs only its dirty cone into a
// per-worker overlay. Reports come back in candidate order, each
// bit-identical to what WhatIf on that candidate alone reports, and the
// design is unchanged when it returns.
func (d *Design) WhatIfBatch(cands [][]WhatIfEdit, opts RunOptions) ([]WhatIfReport, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("repro: no candidates to try")
	}
	changes := make([][]ssta.SizeChange, len(cands))
	for ci, edits := range cands {
		if len(edits) == 0 {
			return nil, fmt.Errorf("repro: no edits to try")
		}
		changes[ci] = make([]ssta.SizeChange, len(edits))
		for i, e := range edits {
			id, ok := d.d.Circuit.Lookup(e.Gate)
			if !ok {
				return nil, fmt.Errorf("repro: unknown gate %q", e.Gate)
			}
			g := d.d.Circuit.Gate(id)
			if !g.Fn.IsLogic() {
				return nil, fmt.Errorf("repro: %q is not a resizable logic gate", e.Gate)
			}
			if n := d.d.Lib.NumSizes(cells.Kind(g.CellRef)); e.Size < 0 || e.Size >= n {
				return nil, fmt.Errorf("repro: size %d for %q out of range [0, %d)", e.Size, e.Gate, n)
			}
			changes[ci][i] = ssta.SizeChange{Gate: id, Size: e.Size}
		}
	}
	f := ssta.NewFlat(d.d, d.vm, opts.ssta())
	clean := f.Result()
	outs := f.BatchWhatIf(changes, 0, opts.ssta().Workers)
	reps := make([]WhatIfReport, len(outs))
	for i, o := range outs {
		reps[i] = WhatIfReport{
			MeanBefore: clean.Mean, SigmaBefore: clean.Sigma,
			MeanAfter: o.Mean, SigmaAfter: o.Sigma,
			NodesRepaired: int64(o.Touched),
			Gates:         d.d.Circuit.NumGates(),
		}
	}
	return reps, nil
}
