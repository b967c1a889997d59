package core

import (
	"time"

	"repro/internal/ssta"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/variation"
)

// analyzer hands the optimizers the whole-circuit analysis of the
// design's sizing and moves it. Production runs use the incremental
// engines: one ssta.Incremental (or sta.Incremental for the
// deterministic optimizer), built on the first call. The optimizers move
// it only by change lists (apply), so the engine repairs only the cones
// of the gates a move names: a move that lands exactly on the sizing
// before the previous move is served by the engine's Rollback, and one
// that a kept what-if candidate already scored adopts that candidate's
// overlay. The returned *Result is the engine's shared,
// in-place-updated object, which is why the optimizer loops capture
// costs as scalars instead of retaining result pointers across moves.
// The package tests run the same loops over a from-scratch reference
// analyzer and demand bit-identical runs.
type analyzer struct {
	// applyFn sets every listed gate to its size (in-place edits of those
	// gates already made are fine) and returns the new analysis; the
	// first call builds the engine at the design's sizing.
	applyFn func(changes []ssta.SizeChange) *ssta.Result
	// whatIfFn scores candidate sizings (changes against the design's
	// current sizes) without moving the design or the engine; nil for the
	// deterministic analyzer.
	whatIfFn func(cands [][]ssta.SizeChange, lambda float64) []float64

	dur time.Duration

	// evals counts whole-circuit analyses, what-if candidates scored and
	// (added by the optimizer loops) FASSTA subcircuit scorings;
	// nodeEvals counts the per-gate timing evaluations behind the
	// whole-circuit work (every gate for the initial analysis, only the
	// repaired or probed cone afterwards). They surface as Result.Evals / Result.NodeEvals: the
	// work metric the scoreboard compares, deliberately NOT part of the
	// bit-exactness contract.
	evals     int64
	nodeEvals int64
}

// newStatAnalyzer builds the FULLSSTA analyzer (the statistical
// optimizers' outer engine). The engine and its initial full analysis
// are built on the first refresh, so they are charged to the analyzer's
// clock and see any sizing a resumed run restores first; every optimizer
// refreshes before its first what-if.
func newStatAnalyzer(d *synth.Design, vm *variation.Model, opts Options) *analyzer {
	a := &analyzer{}
	var inc *ssta.Incremental
	a.applyFn = func(changes []ssta.SizeChange) *ssta.Result {
		if inc == nil {
			inc = ssta.NewIncremental(d, vm, opts.sstaOpts())
			a.evals++
			a.nodeEvals += int64(len(d.Circuit.Gates))
		}
		// A repair or an adoption is an analysis of a new sizing; a list
		// that moves nothing or is served by Rollback is not.
		if touched, opened := inc.ResizeAll(changes); opened {
			a.evals++
			a.nodeEvals += int64(touched)
		}
		return inc.Result()
	}
	a.whatIfFn = func(cands [][]ssta.SizeChange, lambda float64) []float64 {
		outs := inc.BatchWhatIf(cands, lambda, opts.sstaOpts().Workers)
		costs := make([]float64, len(outs))
		for i := range outs {
			costs[i] = outs[i].Cost
			a.nodeEvals += int64(outs[i].Touched)
		}
		a.evals += int64(len(outs))
		return costs
	}
	return a
}

// newDetAnalyzer builds the deterministic analyzer MeanDelayGreedy
// uses, wrapping the sta.Incremental result in the
// ssta.Result shell the subcircuit extractor expects. The exact-equality
// cutoff keeps every value bit-identical to a from-scratch sta.Analyze.
func newDetAnalyzer(d *synth.Design) *analyzer {
	a := &analyzer{}
	var inc *sta.Incremental
	a.applyFn = func(changes []ssta.SizeChange) *ssta.Result {
		if inc == nil {
			inc = sta.NewIncremental(d)
			a.evals++
			a.nodeEvals += int64(len(d.Circuit.Gates))
		}
		if touched := inc.ResizeAll(changes); touched > 0 {
			a.evals++
			a.nodeEvals += int64(touched)
		}
		return &ssta.Result{STA: inc.Result()}
	}
	return a
}

// refresh returns the analysis of the design's current sizes: apply of
// an empty change list.
func (a *analyzer) refresh() *ssta.Result { return a.apply(nil) }

// apply moves the design by a change list — every listed gate to its
// size, a gate listed twice to its last entry — and returns the analysis
// of the new sizing. The listed gates may already hold their new sizes
// (the optimizers edit in place while they score); no other gate may
// have been edited. Wall time accumulates on the analyzer's clock
// (reported as Result.AnalysisTime).
func (a *analyzer) apply(changes []ssta.SizeChange) *ssta.Result {
	t0 := time.Now()
	defer func() { a.dur += time.Since(t0) }()
	return a.applyFn(changes)
}

// whatIf returns the circuit cost of each candidate sizing — expressed
// as changes against the design's CURRENT sizes — without moving the
// design: one batched dirty-cone pass over per-worker overlays
// (ssta.Incremental.BatchWhatIf), bit-identical to applying each
// candidate and re-analyzing.
func (a *analyzer) whatIf(cands [][]ssta.SizeChange, lambda float64) []float64 {
	t0 := time.Now()
	defer func() { a.dur += time.Since(t0) }()
	return a.whatIfFn(cands, lambda)
}
