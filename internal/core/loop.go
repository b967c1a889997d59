package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/cells"
	"repro/internal/ssta"
	"repro/internal/synth"
)

// greedy is what one greedy backend contributes to the shared outer
// loop (runGreedy): its checkpoint op, how it reads a Snapshot off the
// analysis of the current sizing, and its move logic.
type greedy struct {
	op      string
	measure func(*ssta.Result) Snapshot
	// step runs one iteration's moves from full, the analysis of the
	// current sizing, whose snapshot is cur. It leaves the design at the
	// sizing it keeps and returns that sizing's analysis plus the
	// iteration's PathLen, Resized and Move; ok false means there was no
	// move to try, and the run has converged.
	step func(full *ssta.Result, cur Snapshot) (next *ssta.Result, it IterStats, ok bool)
}

// runGreedy is the paper's outer loop (Fig. 2), shared by every greedy
// backend. Each iteration polls the context, tracks the best sizing
// seen, runs the backend's step, records History and emits a
// checkpoint; the run stops at MaxIters, after patience non-improving
// iterations, or when a step has nothing left to move, and it restores
// the best sizing seen. The step's analysis calls are the only ones
// made between the initial and the final refresh.
func runGreedy(d *synth.Design, opts Options, az *analyzer, g greedy) (*Result, error) {
	start := time.Now()
	resume, err := opts.begin(g.op, d)
	if err != nil {
		return nil, err
	}
	res := &Result{StoppedBy: "max-iters"}
	// The analysis is the engine's shared in-place-updated object, so the
	// loop keeps its costs as scalars (cur, best) and never reads a
	// result across a later refresh.
	full := az.refresh()
	cur := g.measure(full)
	res.Initial = cur
	// bestSizes is the best-seen sizing, copied into this one buffer at
	// every improvement.
	best, bestSizes, bad, startIter := cur, d.Circuit.SizeSnapshot(), 0, 0
	if resume != nil {
		// The loop-carried state exactly as the uninterrupted run held it
		// at this iteration boundary.
		res.Initial, best, bad, startIter = resume.Initial, resume.Best, resume.Bad, resume.Iter
		copy(bestSizes, resume.BestSizes)
		res.Iterations = startIter
	}

	for iter := startIter; iter < opts.maxIters(); iter++ {
		if err := opts.ctxErr(); err != nil {
			return nil, err
		}
		res.Iterations = iter + 1
		// Lexicographic best: lower cost wins; at (numerically) equal
		// cost prefer the lower sigma, so cost-neutral mean/sigma trades
		// can never leave the final design with a worse sigma than an
		// earlier iterate.
		if cur.Cost < best.Cost-1e-9 || (cur.Cost < best.Cost+1e-9 && cur.Sigma < best.Sigma) {
			best, bad = cur, 0
			for i := range bestSizes {
				bestSizes[i] = d.Circuit.Gates[i].SizeIdx
			}
		} else if iter > 0 {
			if bad++; bad >= patience {
				res.StoppedBy = "converged"
				break
			}
		}

		next, it, ok := g.step(full, cur)
		if !ok {
			res.StoppedBy = "converged"
			break
		}
		it.Iter, it.Cost, it.Mean, it.Sigma, it.Area = iter, cur.Cost, cur.Mean, cur.Sigma, cur.Area
		res.History = append(res.History, it)
		// This is the one per-iteration site: telemetry hooks go here.
		full, cur = next, g.measure(next)
		opts.emit(d, Checkpoint{
			Op: g.op, Iter: iter + 1, Cost: cur.Cost, BestSizes: bestSizes,
			Best: best, Bad: bad, Initial: res.Initial,
		})
		if it.Resized == 0 {
			res.StoppedBy = "converged"
			break
		}
	}

	res.Final = g.measure(az.refresh())
	if best.Cost < res.Final.Cost {
		d.Circuit.RestoreSizes(bestSizes)
		res.Final = best
	}
	res.finish(start, az)
	return res, nil
}

// begin is every optimizer's prologue: it validates the options and the
// resume checkpoint, and restores a resumed run's sizing. It returns the
// checkpoint, nil when not resuming; on error the design is untouched.
func (o Options) begin(op string, d *synth.Design) (*Checkpoint, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	cp := o.Resume
	if cp == nil {
		return nil, nil
	}
	if cp.Op != op {
		return nil, fmt.Errorf("core: resume checkpoint is for %q, not %q", cp.Op, op)
	}
	if cp.Iter < 0 {
		return nil, fmt.Errorf("core: resume checkpoint has negative iteration %d", cp.Iter)
	}
	if err := checkSizes(d, "sizes", cp.Sizes, false); err != nil {
		return nil, err
	}
	// Only the greedy backends track a best-seen sizing.
	if err := checkSizes(d, "best sizes", cp.BestSizes, op == "recover-area"); err != nil {
		return nil, err
	}
	d.Circuit.RestoreSizes(cp.Sizes)
	return cp, nil
}

// checkSizes rejects a checkpoint sizing that is not one size per gate,
// each within its gate's range: [0, NumSizes) for a mapped gate, just 0
// for an unmapped one (a primary input), whose size nothing reads. An
// optional sizing may instead be empty.
func checkSizes(d *synth.Design, name string, sizes []int, optional bool) error {
	if n := d.Circuit.NumGates(); len(sizes) != n && (len(sizes) > 0 || !optional) {
		return fmt.Errorf("core: resume checkpoint has %d %s, design has %d gates", len(sizes), name, n)
	}
	for i, s := range sizes {
		n := 1
		if ref := d.Circuit.Gates[i].CellRef; ref >= 0 {
			n = d.Lib.NumSizes(cells.Kind(ref))
		}
		if s < 0 || s >= n {
			return fmt.Errorf("core: resume checkpoint %s: gate %q has size %d, outside [0,%d)",
				name, d.Circuit.Gates[i].Name, s, n)
		}
	}
	return nil
}

// emit delivers a checkpoint at the design's current sizing to the
// Checkpoint callback, if any; without one nothing is built or copied.
func (o Options) emit(d *synth.Design, cp Checkpoint) {
	if o.Checkpoint == nil {
		return
	}
	cp.Sizes = d.Circuit.SizeSnapshot()
	// The copy guards the loop's reused best-sizing buffer from the
	// callback's consumer (which typically serializes asynchronously).
	cp.BestSizes = slices.Clone(cp.BestSizes)
	o.Checkpoint(cp)
}

// finish is every optimizer's epilogue: the run's wall time and the
// analyzer's clock and work counters.
func (r *Result) finish(start time.Time, az *analyzer) {
	r.Runtime = time.Since(start)
	r.AnalysisTime = az.dur
	r.Evals = az.evals
	r.NodeEvals = az.nodeEvals
}
