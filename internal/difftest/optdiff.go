package difftest

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ssta"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/variation"
)

// This file is the cross-optimizer differential harness: every
// registered core.Optimizer backend is run through CheckOptimizer,
// which verifies the invariants no sizing backend may violate —
// monotone cost improvement (or the recovery pass's slack budget), the
// area constraint of the recovery pass, and exact agreement between the
// reported Result and a from-scratch re-analysis of the design the
// backend left behind. Like the engine helpers above, everything
// returns errors so the fuzz oracle (FuzzOptimizerInvariants) and the
// package tests share one implementation.

// bestTol absorbs the optimizers' lexicographic best rule, which may
// accept a cost increase of up to 1e-9 per iteration in exchange for a
// lower sigma; over a bounded run the accumulated drift stays far below
// this tolerance.
const bestTol = 1e-6

// CheckOptimizer runs the named registered backend on d (in place, like
// every optimizer) and verifies the cross-backend invariants on what it
// returns. The *Result is handed back so callers can pin trajectories.
func CheckOptimizer(name string, d *synth.Design, vm *variation.Model, opts core.Options) (*core.Result, error) {
	o, ok := core.LookupOptimizer(name)
	if !ok {
		return nil, fmt.Errorf("optimizer %q not registered (have %v)", name, core.Optimizers())
	}
	res, err := o.Run(d, vm, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := CheckOptimizerResult(name, d, vm, opts, res); err != nil {
		return res, err
	}
	return res, nil
}

// CheckOptimizerResult verifies a completed run's invariants: d must be
// exactly the design the backend returned (still at its final sizing).
func CheckOptimizerResult(name string, d *synth.Design, vm *variation.Model, opts core.Options, res *core.Result) error {
	if res == nil {
		return fmt.Errorf("%s: nil result without error", name)
	}
	switch res.StoppedBy {
	case "converged", "target", "max-iters":
	default:
		return fmt.Errorf("%s: unknown StoppedBy %q", name, res.StoppedBy)
	}
	if res.Iterations < 0 || len(res.History) > res.Iterations {
		return fmt.Errorf("%s: %d history entries over %d iterations", name, len(res.History), res.Iterations)
	}
	if res.Evals <= 0 || res.NodeEvals < 0 || (res.NodeEvals == 0 && d.Circuit.NumGates() > 0) {
		return fmt.Errorf("%s: work counters not reported (evals=%d, nodeEvals=%d)", name, res.Evals, res.NodeEvals)
	}

	// Constraint invariants. The greedy backends keep the best-seen
	// sizing, so their final cost can never exceed the initial one; the
	// recovery pass may trade cost up to its slack budget but must never
	// grow area.
	if name == "recoverarea" {
		slack := opts.SlackFrac
		if slack <= 0 {
			slack = 0.01
		}
		if res.Final.Area > res.Initial.Area {
			return fmt.Errorf("%s: area grew %g -> %g", name, res.Initial.Area, res.Final.Area)
		}
		if budget := res.Initial.Cost * (1 + slack); res.Final.Cost > budget {
			return fmt.Errorf("%s: final cost %g exceeds slack budget %g", name, res.Final.Cost, budget)
		}
	} else if res.Final.Cost > res.Initial.Cost+bestTol {
		return fmt.Errorf("%s: cost worsened %g -> %g", name, res.Initial.Cost, res.Final.Cost)
	}

	// Re-analysis agreement: the reported Final snapshot must match a
	// from-scratch analysis of the design the backend left behind,
	// bit-for-bit. This is the oracle that catches a backend whose
	// incremental bookkeeping drifted from the circuit it mutated, or
	// one that forgot to restore its best-seen sizing.
	var want core.Snapshot
	if name == "meandelay" {
		r := sta.Analyze(d)
		want = core.Snapshot{Mean: r.MaxArrival, Cost: r.MaxArrival, Area: d.Area()}
	} else {
		full := ssta.Analyze(d, vm, ssta.Options{Points: opts.PDFPoints, Workers: opts.Workers})
		want = core.Snapshot{
			Mean: full.Mean, Sigma: full.Sigma,
			Cost: full.Cost(d, opts.Lambda), Area: d.Area(),
		}
	}
	if res.Final != want {
		return fmt.Errorf("%s: reported final %+v disagrees with re-analysis %+v", name, res.Final, want)
	}
	return nil
}

// CompareRuns checks two optimizer Results for bit-exact equality on
// every deterministic field. Wall-time and work counters are excluded:
// they measure how the answer was computed (a from-scratch or an
// incremental analyzer), not what it is.
func CompareRuns(got, want *core.Result) error {
	if got.Initial != want.Initial {
		return fmt.Errorf("Initial: got %+v, want %+v", got.Initial, want.Initial)
	}
	if got.Final != want.Final {
		return fmt.Errorf("Final: got %+v, want %+v", got.Final, want.Final)
	}
	if got.Iterations != want.Iterations || got.StoppedBy != want.StoppedBy {
		return fmt.Errorf("trajectory: got (%d, %s), want (%d, %s)",
			got.Iterations, got.StoppedBy, want.Iterations, want.StoppedBy)
	}
	if len(got.History) != len(want.History) {
		return fmt.Errorf("history length: got %d, want %d", len(got.History), len(want.History))
	}
	for i := range want.History {
		if got.History[i] != want.History[i] {
			return fmt.Errorf("history[%d]: got %+v, want %+v", i, got.History[i], want.History[i])
		}
	}
	return nil
}

// CompareSizes checks two sizing vectors for exact equality — the
// canonical oracle for whether two runs agree.
func CompareSizes(got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("size vector length: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("sizes diverge at gate %d: got %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}
