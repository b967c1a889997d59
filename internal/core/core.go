// Package core implements the paper's primary contribution: the
// StatisticalGreedy gate-sizing optimizer (Fig. 2) that reduces the
// variance of a circuit's delay, plus the deterministic mean-delay greedy
// baseline that produces the "Original" designs of Table 1, a
// sensitivity-driven sizer, and an area recovery pass.
//
// StatisticalGreedy runs two nested statistical engines, exactly as the
// paper prescribes: the slow accurate FULLSSTA in the outer loop (tracks
// the statistical state of the whole circuit and the WNSS path) and the
// fast FASSTA in the inner loop (scores every candidate size of every
// gate on the WNSS path over a small extracted subcircuit).
//
// The three greedy backends share one outer loop, runGreedy: it owns
// validation, resume, best-seen tracking with patience, cancellation,
// History, checkpoints and the final best-restore, and each backend
// supplies only its per-iteration moves. The backends are reachable by
// name through a fixed table (LookupOptimizer, Optimizers).
package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/fassta"
	"repro/internal/ssta"
	"repro/internal/synth"
	"repro/internal/variation"
	"repro/internal/wnss"
)

// Options tunes the optimizers. The zero value requests the paper's
// defaults.
type Options struct {
	// Lambda is the weight of sigma in the cost mu + lambda*sigma
	// (paper eq. 7). The paper evaluates 3 and 9.
	Lambda float64
	// MaxIters caps the outer loop; 0 means 100 (40 passes for area
	// recovery).
	MaxIters int
	// SubcktDepth is the extraction radius; 0 means 2 (paper).
	SubcktDepth int
	// PDFPoints is FULLSSTA's sampling rate; 0 means 12.
	PDFPoints int
	// Ctx, when non-nil, is polled at the top of every outer iteration
	// (and between area-recovery passes): once it is cancelled or past
	// its deadline the optimizer abandons the run and returns ctx.Err(),
	// so a caller observes the cancellation within one iteration. nil
	// means the run can never be cancelled.
	Ctx context.Context
	// Workers is the concurrency budget of the timing engines: the
	// initial FULLSSTA analysis, the dirty-cone repairs and the batched
	// what-if passes run level-parallel on up to Workers goroutines
	// (0 = one per CPU, 1 = serial). It changes wall time only: every
	// optimizer returns the identical Result and sizing at any value.
	Workers int
	// Checkpoint, when non-nil, receives a resumable state snapshot at
	// the end of every outer iteration (pass, for RecoverArea). The
	// snapshot is exactly the loop-carried state the next iteration's top
	// reads — sizes, best-seen cost and sizing, patience counter — so an
	// optimizer restarted from it via Resume retraces the uninterrupted
	// run bit-for-bit (the engines are deterministic, and every analysis
	// is a pure function of the sizing vector). The callback runs on the
	// optimizer goroutine; it should be quick (persisting a checkpoint is
	// fine, blocking on a network call is not).
	Checkpoint func(Checkpoint)
	// Resume, when non-nil, restarts the optimizer from a previously
	// emitted checkpoint instead of the design's current sizing. The
	// checkpoint must come from the same operation on the same design
	// (Op, the sizing vectors' lengths and every size index are
	// validated before the design is touched).
	Resume *Checkpoint
	// SlackFrac is the area-recovery pass's cost slack: a recovered
	// sizing is kept only while the verified cost stays within SlackFrac
	// of its value at entry. 0 means DefaultSlackFrac; the other
	// optimizers ignore it.
	SlackFrac float64
	// Seed keys the deterministic tie-breaking hash SensitivitySizer
	// uses to order equal-sensitivity moves. Any value (including 0, the
	// default) gives a fully deterministic run; two runs agree iff their
	// seeds agree. The greedy optimizers ignore it.
	Seed int64
	// Incremental is ignored. Every optimizer always times the circuit
	// with the dirty-cone incremental engines (ssta.Incremental, and
	// sta.Incremental for MeanDelayGreedy), which are bit-identical to a
	// from-scratch analysis. The field remains so existing callers that
	// set it keep compiling.
	Incremental bool
}

// The optimizers' fixed tuning. Every run in this repository, like the
// paper's, uses these values; none of them is a caller option.
const (
	// patience is how many consecutive non-improving outer iterations to
	// tolerate before stopping. The cost trajectory is not monotone: a
	// bad batch is often recovered two or three iterations later, and the
	// best-seen sizing is restored at the end anyway.
	patience = 8
	// minGain is the minimum subcircuit-cost improvement (in ps) for a
	// resize to be scheduled.
	minGain = 1e-6
	// topKPaths is how many of the statistically worst outputs have their
	// WNSS paths optimized per iteration. The circuit variance is a max
	// over all outputs, so several near-critical outputs contribute (the
	// paper discusses exactly this multi-output effect); optimizing only
	// the single worst path strands the others at high variance.
	topKPaths = 16
	// maxStep bounds how many size indices a gate may move per outer
	// iteration: one notch, re-analyzed globally in between. Scanning
	// every size in one shot, the literal paper inner loop, is prone to
	// batch overshoot.
	maxStep = 1
	// areaBudgetFrac bounds how much area SensitivitySizer may add per
	// outer iteration, as a fraction of the current circuit area. The
	// budget shapes each iteration's committed move-set: the top move
	// always commits (so progress is never budget-starved), and
	// downsizing moves refund budget.
	areaBudgetFrac = 0.02
)

// DefaultSlackFrac is the area-recovery cost slack a zero
// Options.SlackFrac selects.
const DefaultSlackFrac = 0.01

// validate rejects option values that would silently corrupt a run: a
// non-finite or negative lambda poisons the cost mu + lambda*sigma, and
// negative counts invert loop semantics. Every optimizer entry point
// calls it before touching the design.
func (o Options) validate() error {
	if math.IsNaN(o.Lambda) || math.IsInf(o.Lambda, 0) || o.Lambda < 0 {
		return fmt.Errorf("core: invalid lambda %g", o.Lambda)
	}
	if math.IsNaN(o.SlackFrac) || math.IsInf(o.SlackFrac, 0) || o.SlackFrac < 0 {
		return fmt.Errorf("core: invalid slack fraction %g", o.SlackFrac)
	}
	for _, c := range []struct {
		name string
		v    int
	}{
		{"iteration cap", o.MaxIters},
		{"subcircuit depth", o.SubcktDepth},
		{"PDF resolution", o.PDFPoints},
		{"worker count", o.Workers},
	} {
		if c.v < 0 {
			return fmt.Errorf("core: negative %s %d", c.name, c.v)
		}
	}
	return nil
}

// Checkpoint is a resumable optimizer state: the full loop-carried
// state at an outer-iteration boundary. Because the engines are
// deterministic and every timing analysis is a pure function of the
// sizing vector, resuming from a checkpoint reproduces the
// uninterrupted run's remaining iterations — and final sizing —
// bit-for-bit.
type Checkpoint struct {
	// Op names the emitting optimizer ("statistical", "mean-delay",
	// "recover-area", "sensitivity"); Resume rejects a mismatch.
	Op string `json:"op"`
	// Iter is the next outer iteration (pass) to execute.
	Iter int `json:"iter"`
	// Cost is the circuit cost of Sizes, for progress reporting.
	Cost float64 `json:"cost"`
	// Sizes is the current sizing vector (circuit.SizeSnapshot form).
	Sizes []int `json:"sizes"`
	// BestSizes / Best / Bad are the best-seen tracking state of the
	// greedy optimizers (unused by recover-area).
	BestSizes []int    `json:"best_sizes,omitempty"`
	Best      Snapshot `json:"best"`
	Bad       int      `json:"bad"`
	// Initial is the snapshot at the original (pre-resume) entry, so a
	// resumed run reports deltas against the true starting point.
	Initial Snapshot `json:"initial"`
	// LocalSlack / Budget are recover-area loop state.
	LocalSlack float64 `json:"local_slack,omitempty"`
	Budget     float64 `json:"budget,omitempty"`
}

// ctxErr reports the cancellation state of the run's context.
func (o Options) ctxErr() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

func (o Options) maxIters() int {
	if o.MaxIters <= 0 {
		return 100
	}
	return o.MaxIters
}

// recoverPasses caps area recovery's pass loop: MaxIters when set,
// otherwise 40.
func (o Options) recoverPasses() int {
	if o.MaxIters <= 0 {
		return 40
	}
	return o.MaxIters
}

func (o Options) slackFrac() float64 {
	if o.SlackFrac == 0 {
		return DefaultSlackFrac
	}
	return o.SlackFrac
}

// sstaOpts is the FULLSSTA configuration every analysis inside the
// optimizers uses: the shared PDF sampling rate plus the worker budget.
func (o Options) sstaOpts() ssta.Options {
	return ssta.Options{Points: o.PDFPoints, Workers: o.Workers}
}

// Snapshot captures the statistical state of a design at one point.
type Snapshot struct {
	Mean  float64 `json:"mean"`  // circuit delay mean, ps
	Sigma float64 `json:"sigma"` // circuit delay std deviation, ps
	Cost  float64 `json:"cost"`  // max over POs of mean + lambda*sigma
	Area  float64 `json:"area"`  // total cell area, um^2
}

// IterStats records one outer iteration for analysis and plotting.
type IterStats struct {
	Iter    int
	Cost    float64
	Mean    float64
	Sigma   float64
	Area    float64
	PathLen int // WNSS (or WNS) path length examined; candidates priced by SensitivitySizer
	Resized int // gates actually rescheduled this iteration
	// Move is the move the iteration kept: "per-gate" or "path-bump"
	// (both greedy optimizers), "single" (StatisticalGreedy's fallback),
	// "sens-batch" or "sens-single" (SensitivitySizer).
	Move string
}

// Result reports an optimization run.
type Result struct {
	Initial    Snapshot
	Final      Snapshot
	History    []IterStats
	Iterations int
	Runtime    time.Duration
	// AnalysisTime is the wall time spent in whole-circuit timing
	// analysis (the initial analysis, the dirty-cone repairs and the
	// batched what-if passes), reported by the layered benchmark's
	// core.analysis_share row.
	AnalysisTime time.Duration
	// StoppedBy explains termination: "converged" or "max-iters".
	StoppedBy string
	// Evals counts the timing evaluations the run requested: whole-circuit
	// analyses, batched what-if candidates, and FASSTA subcircuit scorings.
	// NodeEvals counts the per-gate evaluations behind the whole-circuit
	// work (every gate for the initial analysis, only the repaired or
	// probed cone afterwards). Both measure work done, not wall time —
	// the quantity the cross-optimizer scoreboard compares. They do not
	// depend on Workers, but like the timing fields they are NOT part of
	// the bit-exactness contract: a from-scratch analyzer lands on the
	// identical sizing with different eval counts.
	Evals     int64
	NodeEvals int64
}

func snapshot(d *synth.Design, full *ssta.Result, lambda float64) Snapshot {
	return Snapshot{
		Mean:  full.Mean,
		Sigma: full.Sigma,
		Cost:  full.Cost(d, lambda),
		Area:  d.Area(),
	}
}

// StatisticalGreedy sizes the design in place to minimize
// max_i(mean_i + lambda*sigma_i) over the primary outputs. It follows the
// paper's pseudo-code: trace the WNSS path with the accurate engine,
// evaluate candidate sizes for each path gate with the fast engine,
// schedule the winners, resize in a batch, repeat until constraints are
// met or no further improvement can be made. The best-seen sizing is kept.
func StatisticalGreedy(d *synth.Design, vm *variation.Model, opts Options) (*Result, error) {
	return statisticalGreedy(d, vm, opts, newStatAnalyzer(d, vm, opts))
}

// statisticalGreedy is StatisticalGreedy over a given analyzer, which
// serves every whole-circuit analysis of the run.
func statisticalGreedy(d *synth.Design, vm *variation.Model, opts Options, az *analyzer) (*Result, error) {
	ex := fassta.NewExtractor(d)
	return runGreedy(d, opts, az, greedy{
		op:      "statistical",
		measure: func(full *ssta.Result) Snapshot { return snapshot(d, full, opts.Lambda) },
		step: func(full *ssta.Result, cur Snapshot) (*ssta.Result, IterStats, bool) {
			path := wnss.TraceTopK(d, full, vm, opts.Lambda, topKPaths)
			if len(path) == 0 {
				return nil, IterStats{}, false
			}

			// Move A (the paper's inner loop): greedy per-gate resizing
			// along the WNSS paths, each gate scored on its extracted
			// subcircuit. Extract reads loads from the circuit, so each
			// accepted resize is made in place before the next gate is
			// scored, and undone (start) once the path is done.
			start, moveB := pathMoves(d, path)
			var moveA []ssta.SizeChange
			bestSingleGain := 0.0
			bestSingleGate, bestSingleSize := circuit.None, 0
			for _, g := range path {
				s := ex.Extract(full, vm, g, opts.SubcktDepth)
				bestSize, bestCost, curCost := s.BestSize(opts.Lambda, maxStep)
				if bestSize != d.Circuit.Gate(g).SizeIdx && bestCost < curCost-minGain {
					if gain := curCost - bestCost; gain > bestSingleGain {
						bestSingleGain = gain
						bestSingleGate, bestSingleSize = g, bestSize
					}
					d.Circuit.Gate(g).SizeIdx = bestSize
					moveA = append(moveA, ssta.SizeChange{Gate: g, Size: bestSize})
				}
			}
			az.evals += int64(len(path)) // one subcircuit scoring per path gate
			for _, ch := range start {
				d.Circuit.Gate(ch.Gate).SizeIdx = ch.Size
			}

			// Move B: a coordinated escape — one notch up on every path
			// gate simultaneously. Single-gate moves can be individually
			// rejected because each one slows its (still small) drivers,
			// even though upsizing the whole path together is strictly
			// better (internal R*C is size-invariant, and lower sigma also
			// lowers the statistical mean of the max). Trying the uniform
			// move and keeping whichever of A/B wins globally escapes that
			// coordination trap while staying greedy.
			//
			// Moves A and B are scored as one what-if batch against the
			// start sizing, so their cones run on separate workers; each
			// cost is bit-identical to applying the move and re-analyzing.
			// The engine keeps A's overlay, and B's when their cones fit
			// in the circuit, and applying the winner adopts its kept
			// overlay instead of repairing its cone.
			cands := [][]ssta.SizeChange{moveA}
			if len(moveB) > 0 {
				cands = append(cands, moveB)
			}
			costs := az.whatIf(cands, opts.Lambda)
			costA, costB := costs[0], math.Inf(1)
			if len(moveB) > 0 {
				costB = costs[1]
			}

			// Pick the winner by the scalar costs; it is applied once,
			// after the move-C probe below has also been scored.
			move := "per-gate"
			chosenCost, winner, resized := costA, moveA, len(moveA)
			if len(moveB) > 0 && costB < costA {
				chosenCost, winner, resized, move = costB, moveB, len(moveB), "path-bump"
			}
			// Move C, the verified single-step fallback: when every batch
			// move made the global cost worse, a whole first batch has
			// overshot. Retry with only the single most promising gate
			// move, scored against the start sizing; if even that fails
			// globally, the iteration counts as non-improving and patience
			// handles termination.
			if chosenCost >= cur.Cost && bestSingleGate != circuit.None {
				single := []ssta.SizeChange{{Gate: bestSingleGate, Size: bestSingleSize}}
				if az.whatIf([][]ssta.SizeChange{single}, opts.Lambda)[0] < cur.Cost {
					winner, resized, move = single, 1, "single"
				} else {
					// Keep the batch result anyway; best-restore protects us.
					winner = moveA
				}
			}
			return az.apply(winner), IterStats{PathLen: len(path), Resized: resized, Move: move}, true
		},
	})
}

// MeanDelayGreedy is the deterministic baseline: greedy WNS-path sizing
// that minimizes the nominal circuit delay. Running it on a freshly
// mapped (minimum-size) design produces the paper's "Original" designs —
// mean-optimal, with the widest performance spread.
func MeanDelayGreedy(d *synth.Design, vm *variation.Model, opts Options) (*Result, error) {
	return meanDelayGreedy(d, vm, opts, newDetAnalyzer(d))
}

// meanDelayGreedy is MeanDelayGreedy over a given deterministic analyzer.
// Its cost is the nominal delay, so every snapshot has a zero sigma.
func meanDelayGreedy(d *synth.Design, vm *variation.Model, opts Options, az *analyzer) (*Result, error) {
	ex := fassta.NewExtractor(d)
	return runGreedy(d, opts, az, greedy{
		op: "mean-delay",
		measure: func(nominal *ssta.Result) Snapshot {
			arr := nominal.STA.MaxArrival
			return Snapshot{Mean: arr, Cost: arr, Area: d.Area()}
		},
		step: func(nominal *ssta.Result, _ Snapshot) (*ssta.Result, IterStats, bool) {
			path := nominal.STA.CriticalPath(d)
			if len(path) == 0 {
				return nil, IterStats{}, false
			}
			// Move A: greedy per-gate resizing along the WNS path, made in
			// place while scoring (Extract reads loads from the circuit).
			start, moveB := pathMoves(d, path)
			var moveA []ssta.SizeChange
			for _, g := range path {
				s := ex.Extract(nominal, vm, g, opts.SubcktDepth)
				bestSize, bestCost, curCost := s.BestSizeDeterministic(maxStep)
				if bestSize != d.Circuit.Gate(g).SizeIdx && bestCost < curCost-minGain {
					d.Circuit.Gate(g).SizeIdx = bestSize
					moveA = append(moveA, ssta.SizeChange{Gate: g, Size: bestSize})
				}
			}
			az.evals += int64(len(path)) // one subcircuit scoring per path gate
			costA := az.apply(moveA).STA.MaxArrival

			// Move B: uniform one-notch bump of the whole path (same
			// coordination escape as the statistical optimizer), applied
			// over move A from the start sizing and taken back if it
			// loses.
			move, resized := "per-gate", len(moveA)
			if len(moveB) > 0 {
				if az.apply(slices.Concat(start, moveB)).STA.MaxArrival < costA {
					resized, move = len(moveB), "path-bump"
				} else {
					az.apply(slices.Concat(start, moveA))
				}
			}
			return az.refresh(), IterStats{PathLen: len(path), Resized: resized, Move: move}, true
		},
	})
}

// pathMoves returns the path's gates at their current sizes (the list
// that restores them) and the greedy backends' coordinated path-bump
// move: every path gate one size up where its cell has a larger size.
func pathMoves(d *synth.Design, path []circuit.GateID) (start, bump []ssta.SizeChange) {
	start, bump = make([]ssta.SizeChange, 0, len(path)), make([]ssta.SizeChange, 0, len(path))
	for _, g := range path {
		gate := d.Circuit.Gate(g)
		start = append(start, ssta.SizeChange{Gate: g, Size: gate.SizeIdx})
		if gate.SizeIdx+1 < d.Lib.NumSizes(cells.Kind(gate.CellRef)) {
			bump = append(bump, ssta.SizeChange{Gate: g, Size: gate.SizeIdx + 1})
		}
	}
	return start, bump
}

// RecoverArea downsizes gates whose size does not pay for itself,
// in globally verified batches: a gate is shrunk one step when its
// subcircuit cost increases by no more than a small local slack, and a
// whole batch is kept only if the verified global cost stays within
// opts.SlackFrac of the cost at entry (otherwise the local slack is
// halved and the batch retried). Gates are visited in reverse
// topological order so output-side fat is trimmed first. The area saved
// is Initial.Area - Final.Area.
func RecoverArea(d *synth.Design, vm *variation.Model, opts Options) (*Result, error) {
	return recoverArea(d, vm, opts, newStatAnalyzer(d, vm, opts))
}

// recoverArea is RecoverArea over a given analyzer: its own pass loop
// between the shared optimizer prologue and epilogue.
func recoverArea(d *synth.Design, vm *variation.Model, opts Options, az *analyzer) (*Result, error) {
	start := time.Now()
	resume, err := opts.begin("recover-area", d)
	if err != nil {
		return nil, err
	}
	res := &Result{StoppedBy: "max-iters"}
	ex := fassta.NewExtractor(d)

	full := az.refresh()
	res.Initial = snapshot(d, full, opts.Lambda)
	entryCost := full.Cost(d, opts.Lambda)
	slackFrac := opts.slackFrac()
	budget := entryCost * (1 + slackFrac)
	localSlack := entryCost * slackFrac / 4
	if localSlack <= 0 {
		localSlack = 1e-9
	}
	startPass := 0
	if resume != nil {
		// Loop state exactly as the uninterrupted run carried it at this
		// pass boundary (budget was derived from the ORIGINAL entry cost,
		// so it comes from the checkpoint, not from the resumed design).
		budget = resume.Budget
		localSlack = resume.LocalSlack
		startPass = resume.Iter
		res.Iterations = startPass
		if resume.Initial != (Snapshot{}) {
			res.Initial = resume.Initial
		}
	}

	topo := d.Circuit.MustTopoOrder()
	var batch []ssta.SizeChange
	for pass := startPass; pass < opts.recoverPasses(); pass++ {
		if err := opts.ctxErr(); err != nil {
			return nil, err
		}
		res.Iterations = pass + 1
		// Each downsize is made in place, so later gates are scored
		// against it, and recorded in the pass's batch.
		batch = batch[:0]
		for i := len(topo) - 1; i >= 0; i-- {
			g := d.Circuit.Gate(topo[i])
			if !g.Fn.IsLogic() || g.SizeIdx == 0 {
				continue
			}
			s := ex.Extract(full, vm, g.ID, opts.SubcktDepth)
			az.evals++ // one subcircuit scoring
			curCost := s.Cost(g.SizeIdx, opts.Lambda)
			if s.Cost(g.SizeIdx-1, opts.Lambda) <= curCost+localSlack {
				g.SizeIdx--
				batch = append(batch, ssta.SizeChange{Gate: g.ID, Size: g.SizeIdx})
			}
		}
		if len(batch) == 0 {
			res.StoppedBy = "converged"
			break
		}
		full = az.apply(batch)
		if full.Cost(d, opts.Lambda) > budget {
			// Batch overshot the global budget: take it back (served by
			// the engine's Rollback) and retry more conservatively.
			for i := range batch {
				batch[i].Size++
			}
			full = az.apply(batch)
			localSlack /= 2
			if localSlack < 1e-6 {
				res.StoppedBy = "converged"
				break
			}
		}
		opts.emit(d, Checkpoint{
			Op: "recover-area", Iter: pass + 1, Cost: full.Cost(d, opts.Lambda),
			Initial: res.Initial, LocalSlack: localSlack, Budget: budget,
		})
	}
	res.Final = snapshot(d, az.refresh(), opts.Lambda)
	res.finish(start, az)
	return res, nil
}
