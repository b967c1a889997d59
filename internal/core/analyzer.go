package core

import (
	"time"

	"repro/internal/circuit"
	"repro/internal/ssta"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/variation"
)

// analyzer hands the optimizers the up-to-date whole-circuit analysis
// for the design's CURRENT sizes. Production runs use the incremental
// engines: one ssta.Incremental (or exact-mode sta.Incremental for the
// deterministic optimizer) built on the first refresh; every later
// refresh diffs the circuit's sizes against the engine's record and
// repairs only the dirty cones, and a refresh that lands exactly on the
// engine's pre-transaction sizing (the optimizers restore a snapshot
// after every tentative move) is served by the engine's Rollback without
// any re-analysis. The returned *Result is the engine's shared,
// in-place-updated object, which is why the optimizer loops capture
// costs as scalars instead of retaining result pointers across
// refreshes. The package tests run the same loops over a from-scratch
// reference analyzer and demand bit-identical runs.
type analyzer struct {
	// current returns the analysis of the design's current sizes.
	current func() *ssta.Result
	// whatIfFn scores candidate sizings (changes against the design's
	// current sizes) without moving the design or the engine; nil for the
	// deterministic analyzer.
	whatIfFn func(cands [][]ssta.SizeChange, lambda float64) []float64

	dur time.Duration

	// evals counts whole-circuit analyses plus what-if candidates scored;
	// nodeEvals counts the per-gate timing evaluations behind them (every
	// gate for the initial analysis, only the repaired or probed cone
	// afterwards). They surface as Result.Evals / Result.NodeEvals: the
	// work metric the scoreboard compares, deliberately NOT part of the
	// bit-exactness contract.
	evals     int64
	nodeEvals int64
}

// newStatAnalyzer builds the FULLSSTA analyzer (the statistical
// optimizers' outer engine). The engine and its initial full analysis
// are built on the first refresh, so they are charged to the analyzer's
// clock and see any sizing a resumed run restores first.
func newStatAnalyzer(d *synth.Design, vm *variation.Model, opts Options) *analyzer {
	a := &analyzer{}
	var inc *ssta.Incremental
	// last is the sizing the engine currently holds; prev is the one its
	// open transaction would restore. Refreshing back to prev is served by
	// Rollback — a journal copy-back instead of a cone repair — which
	// makes the optimizers' restore-after-tentative-move pattern a
	// near-free revisit.
	var last, prev []int
	a.current = func() *ssta.Result {
		if inc == nil {
			inc = ssta.NewIncremental(d, vm, opts.sstaOpts())
			a.evals++
			a.nodeEvals += int64(len(d.Circuit.Gates))
			last = d.Circuit.SizeSnapshot()
			return inc.Result()
		}
		cur := d.Circuit.SizeSnapshot()
		switch {
		case eqSizes(cur, last):
			// Already up to date.
		case prev != nil && eqSizes(cur, prev):
			inc.Rollback()
			last, prev = prev, nil
		default:
			// Sizes differ from the engine's record, so Sync is
			// guaranteed to open a fresh transaction rolling back to
			// what the engine held until now.
			a.evals++
			a.nodeEvals += int64(inc.Sync())
			prev, last = last, cur
		}
		return inc.Result()
	}
	a.whatIfFn = func(cands [][]ssta.SizeChange, lambda float64) []float64 {
		// Align the engine with the circuit first (a no-op when the
		// caller just refreshed, which is the optimizer's pattern), then
		// score every candidate against that shared clean state.
		a.current()
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
// uses, wrapping the exact-mode sta.Incremental result in the
// ssta.Result shell the subcircuit extractor expects. The exact-equality
// cutoff keeps every value bit-identical to a from-scratch sta.Analyze.
func newDetAnalyzer(d *synth.Design) *analyzer {
	a := &analyzer{}
	var inc *sta.Incremental
	a.current = func() *ssta.Result {
		if inc == nil {
			inc = sta.NewIncrementalExact(d)
			a.evals++
			a.nodeEvals += int64(len(d.Circuit.Gates))
		} else if touched := inc.Sync(); touched > 0 {
			a.evals++
			a.nodeEvals += int64(touched)
		}
		return &ssta.Result{STA: inc.Result()}
	}
	return a
}

// refresh returns the analysis of the design's current sizes. Wall time
// accumulates on the analyzer's clock (reported as Result.AnalysisTime).
func (a *analyzer) refresh() *ssta.Result {
	t0 := time.Now()
	defer func() { a.dur += time.Since(t0) }()
	return a.current()
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

// changesBetween expresses a target sizing as the change list against a
// base sizing — the candidate form whatIf consumes.
func changesBetween(base, want []int) []ssta.SizeChange {
	var ch []ssta.SizeChange
	for i := range want {
		if want[i] != base[i] {
			ch = append(ch, ssta.SizeChange{Gate: circuit.GateID(i), Size: want[i]})
		}
	}
	return ch
}

func eqSizes(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
