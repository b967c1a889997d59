// Package core implements the paper's primary contribution: the
// StatisticalGreedy gate-sizing optimizer (Fig. 2) that reduces the
// variance of a circuit's delay, plus the deterministic mean-delay greedy
// baseline that produces the "Original" designs of Table 1, and an area
// recovery pass.
//
// StatisticalGreedy runs two nested statistical engines, exactly as the
// paper prescribes: the slow accurate FULLSSTA in the outer loop (tracks
// the statistical state of the whole circuit and the WNSS path) and the
// fast FASSTA in the inner loop (scores every candidate size of every
// gate on the WNSS path over a small extracted subcircuit).
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
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
	// MaxIters caps the outer loop; 0 means 100.
	MaxIters int
	// SubcktDepth is the extraction radius; 0 means 2 (paper).
	SubcktDepth int
	// PDFPoints is FULLSSTA's sampling rate; 0 means 12.
	PDFPoints int
	// Patience is how many consecutive non-improving outer iterations to
	// tolerate before stopping; 0 means 8 (the cost trajectory is not
	// monotone: a bad batch is often recovered two or three iterations
	// later, and the best-seen sizing is restored at the end anyway).
	Patience int
	// TargetCost, when positive, stops the optimizer as soon as the
	// circuit cost drops to it (constrained mode).
	TargetCost float64
	// MinGain is the minimum subcircuit-cost improvement (in ps) for a
	// resize to be scheduled; 0 means 1e-6.
	MinGain float64
	// TopKPaths is how many of the statistically worst outputs have their
	// WNSS paths optimized per iteration; 0 means 16. The circuit variance
	// is a max over all outputs, so several near-critical outputs
	// contribute (the paper discusses exactly this multi-output effect);
	// optimizing only the single worst path strands the others at high
	// variance.
	TopKPaths int
	// MaxStep bounds how many size indices a gate may move per outer
	// iteration; 0 means 1 (one notch per iteration, re-analyzed
	// globally in between). Negative scans all sizes in one shot, the
	// literal paper inner loop, which is prone to batch overshoot.
	MaxStep int
	// ConeMove additionally tries, each iteration, a uniform one-notch
	// bump of the whole fanin cone of the worst outputs. It is an
	// aggressive extension beyond the paper's path-local moves; off by
	// default, exercised by the ablation benches.
	ConeMove bool
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
	// the end of every CheckpointEvery-th outer iteration (pass, for
	// RecoverArea). The snapshot is exactly the loop-carried state the
	// next iteration's top reads — sizes, best-seen cost and sizing,
	// patience counter — so an optimizer restarted from it via Resume
	// retraces the uninterrupted run bit-for-bit (the engines are
	// deterministic, and every analysis is a pure function of the sizing
	// vector). The callback runs on the optimizer goroutine; it should
	// be quick (persisting a checkpoint is fine, blocking on a network
	// call is not).
	Checkpoint func(Checkpoint)
	// CheckpointEvery is the emission period in outer iterations;
	// <= 0 means 1 (every iteration).
	CheckpointEvery int
	// Resume, when non-nil, restarts the optimizer from a previously
	// emitted checkpoint instead of the design's current sizing. The
	// checkpoint must come from the same operation on the same design
	// (Op and sizing-vector length are validated).
	Resume *Checkpoint
	// Seed keys the deterministic tie-breaking hash SensitivitySizer
	// uses to order equal-sensitivity moves. Any value (including 0, the
	// default) gives a fully deterministic run; two runs agree iff their
	// seeds agree. The greedy optimizers ignore it.
	Seed int64
	// AreaBudgetFrac bounds how much area SensitivitySizer may add per
	// outer iteration, as a fraction of the current circuit area; 0 means
	// 0.02 (2%). The budget shapes each iteration's committed move-set:
	// the top move always commits (so progress is never budget-starved),
	// and downsizing moves refund budget.
	AreaBudgetFrac float64
	// SlackFrac is the cost slack fraction of the area-recovery pass when
	// it runs through the Optimizer interface ("recoverarea" backend);
	// 0 means 0.01. The direct RecoverArea call takes it as an explicit
	// argument instead.
	SlackFrac float64
	// Incremental is ignored. Every optimizer always times the circuit
	// with the dirty-cone incremental engines (ssta.Incremental, and the
	// exact-mode sta.Incremental for MeanDelayGreedy), which are
	// bit-identical to a from-scratch analysis. The field remains so
	// existing callers that set it keep compiling.
	Incremental bool
}

// validate rejects option values that would silently corrupt a run: a
// non-finite or negative lambda poisons the cost mu + lambda*sigma, and
// negative counts invert loop semantics. Every optimizer entry point
// calls it before touching the design. MaxStep is exempt — negative is a
// documented mode (scan all sizes) — and TargetCost only needs to be
// finite (any value below the reachable cost range just never triggers).
func (o Options) validate() error {
	if math.IsNaN(o.Lambda) || math.IsInf(o.Lambda, 0) || o.Lambda < 0 {
		return fmt.Errorf("core: invalid lambda %g", o.Lambda)
	}
	if math.IsNaN(o.TargetCost) || math.IsInf(o.TargetCost, 0) {
		return fmt.Errorf("core: non-finite target cost %g", o.TargetCost)
	}
	if math.IsNaN(o.MinGain) || math.IsInf(o.MinGain, 0) || o.MinGain < 0 {
		return fmt.Errorf("core: invalid min gain %g", o.MinGain)
	}
	if math.IsNaN(o.AreaBudgetFrac) || math.IsInf(o.AreaBudgetFrac, 0) || o.AreaBudgetFrac < 0 {
		return fmt.Errorf("core: invalid area budget fraction %g", o.AreaBudgetFrac)
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
		{"patience", o.Patience},
		{"path count", o.TopKPaths},
		{"worker count", o.Workers},
		{"checkpoint period", o.CheckpointEvery},
	} {
		if c.v < 0 {
			return fmt.Errorf("core: negative %s %d", c.name, c.v)
		}
	}
	return nil
}

func (o Options) checkpointEvery() int {
	if o.CheckpointEvery <= 0 {
		return 1
	}
	return o.CheckpointEvery
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
	// LocalSlack / Budget / Area0 are recover-area loop state.
	LocalSlack float64 `json:"local_slack,omitempty"`
	Budget     float64 `json:"budget,omitempty"`
	Area0      float64 `json:"area0,omitempty"`
}

// resumeFor validates Options.Resume against the engine op and the
// design's gate count, returning the checkpoint (nil when not resuming).
func (o Options) resumeFor(op string, d *synth.Design) (*Checkpoint, error) {
	cp := o.Resume
	if cp == nil {
		return nil, nil
	}
	if cp.Op != op {
		return nil, fmt.Errorf("core: resume checkpoint is for %q, not %q", cp.Op, op)
	}
	if want := len(d.Circuit.SizeSnapshot()); len(cp.Sizes) != want {
		return nil, fmt.Errorf("core: resume checkpoint has %d sizes, design has %d gates", len(cp.Sizes), want)
	}
	if cp.Iter < 0 {
		return nil, fmt.Errorf("core: resume checkpoint has negative iteration %d", cp.Iter)
	}
	return cp, nil
}

// emit delivers a checkpoint if this iteration boundary is due.
func (o Options) emit(cp Checkpoint) {
	if o.Checkpoint == nil || cp.Iter%o.checkpointEvery() != 0 {
		return
	}
	// Copies guard the engine's retained slices from the callback's
	// consumer (which typically serializes asynchronously).
	cp.Sizes = append([]int(nil), cp.Sizes...)
	cp.BestSizes = append([]int(nil), cp.BestSizes...)
	o.Checkpoint(cp)
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

func (o Options) patience() int {
	if o.Patience <= 0 {
		return 8
	}
	return o.Patience
}

func (o Options) minGain() float64 {
	if o.MinGain <= 0 {
		return 1e-6
	}
	return o.MinGain
}

func (o Options) topK() int {
	if o.TopKPaths <= 0 {
		return 16
	}
	return o.TopKPaths
}

func (o Options) areaBudgetFrac() float64 {
	if o.AreaBudgetFrac <= 0 {
		return 0.02
	}
	return o.AreaBudgetFrac
}

func (o Options) slackFrac() float64 {
	if o.SlackFrac <= 0 {
		return 0.01
	}
	return o.SlackFrac
}

func (o Options) maxStep() int {
	if o.MaxStep == 0 {
		return 1
	}
	if o.MaxStep < 0 {
		return 0 // unlimited
	}
	return o.MaxStep
}

// sstaOpts is the FULLSSTA configuration every analysis inside the
// optimizers uses: the shared PDF sampling rate plus the worker budget.
func (o Options) sstaOpts() ssta.Options {
	return ssta.Options{Points: o.PDFPoints, Workers: o.Workers}
}

// Snapshot captures the statistical state of a design at one point.
type Snapshot struct {
	Mean  float64 // circuit delay mean, ps
	Sigma float64 // circuit delay std deviation, ps
	Cost  float64 // max over POs of mean + lambda*sigma
	Area  float64 // total cell area, um^2
}

// IterStats records one outer iteration for analysis and plotting.
type IterStats struct {
	Iter    int
	Cost    float64
	Mean    float64
	Sigma   float64
	Area    float64
	PathLen int    // WNSS (or WNS) path length examined
	Resized int    // gates actually rescheduled this iteration
	Move    string // which move was kept: "per-gate", "path-bump", "cone-bump"
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
	// StoppedBy explains termination: "converged", "target", "max-iters".
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
	if err := opts.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	res := &Result{StoppedBy: "max-iters"}
	ex := fassta.NewExtractor(d)
	var subEvals int64 // FASSTA subcircuit scorings (one per path gate examined)

	resume, err := opts.resumeFor("statistical", d)
	if err != nil {
		return nil, err
	}
	if resume != nil {
		d.Circuit.RestoreSizes(resume.Sizes)
	}

	// All whole-circuit analyses go through the analyzer. `full` is the
	// incremental engine's shared in-place-updated object, so the loop
	// below captures every cost it needs as a scalar and re-refreshes
	// after each RestoreSizes instead of retaining result pointers.
	full := az.refresh()
	res.Initial = snapshot(d, full, opts.Lambda)
	best := res.Initial
	bestSizes := d.Circuit.SizeSnapshot()
	bad := 0
	startIter := 0
	if resume != nil {
		// Restore the loop-carried state exactly as the uninterrupted run
		// would have held it at this iteration boundary.
		res.Initial = resume.Initial
		best = resume.Best
		bestSizes = append([]int(nil), resume.BestSizes...)
		bad = resume.Bad
		startIter = resume.Iter
		res.Iterations = startIter
	}

	for iter := startIter; iter < opts.maxIters(); iter++ {
		if err := opts.ctxErr(); err != nil {
			return nil, err
		}
		res.Iterations = iter + 1
		cur := snapshot(d, full, opts.Lambda)
		// Lexicographic best: lower cost wins; at (numerically) equal
		// cost prefer the lower sigma, so cost-neutral mean/sigma trades
		// can never leave the final design with a worse sigma than an
		// earlier iterate.
		if cur.Cost < best.Cost-1e-9 || (cur.Cost < best.Cost+1e-9 && cur.Sigma < best.Sigma) {
			best = cur
			bestSizes = d.Circuit.SizeSnapshot()
			bad = 0
		} else if iter > 0 {
			bad++
			if bad >= opts.patience() {
				res.StoppedBy = "converged"
				break
			}
		}
		if opts.TargetCost > 0 && cur.Cost <= opts.TargetCost {
			res.StoppedBy = "target"
			break
		}

		path := wnss.TraceTopK(d, full, vm, opts.Lambda, opts.topK())
		if len(path) == 0 {
			res.StoppedBy = "converged"
			break
		}
		// The cone move seeds from the iteration-start analysis; capture
		// them now, before any refresh retargets the shared result
		// object to a tentative configuration.
		var coneSeeds []circuit.GateID
		if opts.ConeMove {
			coneSeeds = worstOutputs(d, full, opts.Lambda, opts.topK())
		}

		// Move A (the paper's inner loop): greedy per-gate resizing along
		// the WNSS paths, each gate scored on its extracted subcircuit.
		startSizes := d.Circuit.SizeSnapshot()
		resized := 0
		bestSingleGain := 0.0
		bestSingleGate, bestSingleSize := circuit.None, 0
		for _, g := range path {
			s := ex.Extract(full, vm, g, opts.SubcktDepth)
			bestSize, bestCost, curCost := s.BestSize(opts.Lambda, opts.maxStep())
			if bestSize != d.Circuit.Gate(g).SizeIdx && bestCost < curCost-opts.minGain() {
				if gain := curCost - bestCost; gain > bestSingleGain {
					bestSingleGain = gain
					bestSingleGate, bestSingleSize = g, bestSize
				}
				d.Circuit.Gate(g).SizeIdx = bestSize
				resized++
			}
		}
		subEvals += int64(len(path))
		sizesA := d.Circuit.SizeSnapshot()

		// Move B: a coordinated escape — one notch up on every path gate
		// simultaneously. Single-gate moves can be individually rejected
		// because each one slows its (still small) drivers, even though
		// upsizing the whole path together is strictly better (internal
		// R*C is size-invariant, and lower sigma also lowers the
		// statistical mean of the max). Trying the uniform move and
		// keeping whichever of A/B wins globally escapes that
		// coordination trap while staying greedy.
		d.Circuit.RestoreSizes(startSizes)
		bumped := 0
		for _, g := range path {
			gate := d.Circuit.Gate(g)
			if gate.SizeIdx+1 < d.Lib.NumSizes(cells.Kind(gate.CellRef)) {
				gate.SizeIdx++
				bumped++
			}
		}
		var sizesB []int
		if bumped > 0 {
			sizesB = d.Circuit.SizeSnapshot()
		}

		// Move C: the coarsest escape — one notch up on every gate in the
		// transitive fanin cone of the worst outputs. Circuits with many
		// parallel near-critical paths (e.g. a 27-channel priority
		// encoder) would need one iteration per path under moves A/B;
		// the cone move lifts them together.
		coneBumped := 0
		var sizesC []int
		if opts.ConeMove {
			d.Circuit.RestoreSizes(startSizes)
			cone := d.Circuit.TransitiveFanin(coneSeeds, -1)
			for _, g := range cone {
				gate := d.Circuit.Gate(g)
				if !gate.Fn.IsLogic() {
					continue
				}
				if gate.SizeIdx+1 < d.Lib.NumSizes(cells.Kind(gate.CellRef)) {
					gate.SizeIdx++
					coneBumped++
				}
			}
			if coneBumped > 0 {
				sizesC = d.Circuit.SizeSnapshot()
			}
		}
		// Move A — the most common winner — is scored by refreshing the
		// analyzer at its sizing: its application IS its analysis, so the
		// engine's dirty-cone repair does double duty and no separate
		// probe overlay is ever built for it. The remaining
		// moves are scored as what-if candidates expressed against sizesA
		// (the circuit's configuration at probe time); the costs are
		// bit-identical to applying each move and re-analyzing, so the
		// winner choice matches the historical sequential probing exactly.
		d.Circuit.RestoreSizes(sizesA)
		costA := az.refresh().Cost(d, opts.Lambda)
		var cands [][]ssta.SizeChange
		if bumped > 0 {
			cands = append(cands, changesBetween(sizesA, sizesB))
		}
		if coneBumped > 0 {
			cands = append(cands, changesBetween(sizesA, sizesC))
		}
		costB, costC := math.Inf(1), math.Inf(1)
		if len(cands) > 0 {
			costs := az.whatIf(cands, opts.Lambda)
			if bumped > 0 {
				costB = costs[0]
			}
			if coneBumped > 0 {
				costC = costs[len(costs)-1]
			}
		}

		// Pick the winner by the scalar costs; a non-A winner is applied
		// (and `full` refreshed) once, after the move-D probe below has
		// also been scored.
		move := "per-gate"
		chosenCost := costA
		winnerSizes := sizesA
		switch {
		case coneBumped > 0 && costC < costA && costC < costB:
			chosenCost, winnerSizes, resized, move = costC, sizesC, coneBumped, "cone-bump"
		case bumped > 0 && costB < costA:
			chosenCost, winnerSizes, resized, move = costB, sizesB, bumped, "path-bump"
		}
		// Move D, the verified single-step fallback: when every batch move
		// made the global cost worse, a whole first batch has overshot.
		// Retry with only the single most promising gate move; if even
		// that fails globally, the iteration counts as non-improving and
		// patience handles termination.
		if chosenCost >= cur.Cost && bestSingleGate != circuit.None {
			sizesD := append([]int(nil), startSizes...)
			sizesD[bestSingleGate] = bestSingleSize
			costD := az.whatIf([][]ssta.SizeChange{
				changesBetween(sizesA, sizesD),
			}, opts.Lambda)[0]
			if costD < cur.Cost {
				d.Circuit.RestoreSizes(sizesD)
				resized = 1
				move = "single"
			} else {
				// Keep the batch result anyway; best-restore protects us.
				d.Circuit.RestoreSizes(sizesA)
			}
		} else {
			d.Circuit.RestoreSizes(winnerSizes)
		}
		full = az.refresh()
		res.History = append(res.History, IterStats{
			Iter: iter, Cost: cur.Cost, Mean: cur.Mean, Sigma: cur.Sigma,
			Area: cur.Area, PathLen: len(path), Resized: resized, Move: move,
		})
		opts.emit(Checkpoint{
			Op: "statistical", Iter: iter + 1, Cost: full.Cost(d, opts.Lambda),
			Sizes: d.Circuit.SizeSnapshot(), BestSizes: bestSizes,
			Best: best, Bad: bad, Initial: res.Initial,
		})
		if resized == 0 {
			res.StoppedBy = "converged"
			break
		}
	}

	// Keep the best sizing seen.
	final := snapshot(d, az.refresh(), opts.Lambda)
	if best.Cost < final.Cost {
		d.Circuit.RestoreSizes(bestSizes)
		final = best
	}
	res.Final = final
	res.Runtime = time.Since(start)
	res.AnalysisTime = az.dur
	res.Evals = az.evals + subEvals
	res.NodeEvals = az.nodeEvals
	return res, nil
}

// worstOutputs returns the POs among the top-k by mean + lambda*sigma.
func worstOutputs(d *synth.Design, full *ssta.Result, lambda float64, k int) []circuit.GateID {
	outs := append([]circuit.GateID(nil), d.Circuit.Outputs...)
	sort.Slice(outs, func(i, j int) bool {
		mi, mj := full.Node[outs[i]], full.Node[outs[j]]
		return mi.Mean+lambda*mi.Sigma() > mj.Mean+lambda*mj.Sigma()
	})
	if k < len(outs) {
		outs = outs[:k]
	}
	return outs
}

// MeanDelayGreedy is the deterministic baseline: greedy WNS-path sizing
// that minimizes the nominal circuit delay. Running it on a freshly
// mapped (minimum-size) design produces the paper's "Original" designs —
// mean-optimal, with the widest performance spread.
func MeanDelayGreedy(d *synth.Design, vm *variation.Model, opts Options) (*Result, error) {
	return meanDelayGreedy(d, vm, opts, newDetAnalyzer(d))
}

// meanDelayGreedy is MeanDelayGreedy over a given deterministic analyzer.
func meanDelayGreedy(d *synth.Design, vm *variation.Model, opts Options, az *analyzer) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	res := &Result{StoppedBy: "max-iters"}
	ex := fassta.NewExtractor(d)
	var subEvals int64

	resume, err := opts.resumeFor("mean-delay", d)
	if err != nil {
		return nil, err
	}
	if resume != nil {
		d.Circuit.RestoreSizes(resume.Sizes)
	}

	// Same analyzer discipline as StatisticalGreedy: `nominal` shares the
	// incremental engine's timing, so the loop keeps scalar costs and
	// re-refreshes after every RestoreSizes.
	nominal := az.refresh()
	res.Initial = Snapshot{Mean: nominal.STA.MaxArrival, Cost: nominal.STA.MaxArrival, Area: d.Area()}
	best := res.Initial
	bestSizes := d.Circuit.SizeSnapshot()
	bad := 0
	startIter := 0
	if resume != nil {
		res.Initial = resume.Initial
		best = resume.Best
		bestSizes = append([]int(nil), resume.BestSizes...)
		bad = resume.Bad
		startIter = resume.Iter
		res.Iterations = startIter
	}

	for iter := startIter; iter < opts.maxIters(); iter++ {
		if err := opts.ctxErr(); err != nil {
			return nil, err
		}
		res.Iterations = iter + 1
		cur := Snapshot{Mean: nominal.STA.MaxArrival, Cost: nominal.STA.MaxArrival, Area: d.Area()}
		if cur.Cost < best.Cost {
			best = cur
			bestSizes = d.Circuit.SizeSnapshot()
			bad = 0
		} else if iter > 0 {
			bad++
			if bad >= opts.patience() {
				res.StoppedBy = "converged"
				break
			}
		}
		if opts.TargetCost > 0 && cur.Cost <= opts.TargetCost {
			res.StoppedBy = "target"
			break
		}

		path := nominal.STA.CriticalPath(d)
		if len(path) == 0 {
			res.StoppedBy = "converged"
			break
		}
		// Move A: greedy per-gate resizing along the WNS path.
		startSizes := d.Circuit.SizeSnapshot()
		resized := 0
		for _, g := range path {
			s := ex.Extract(nominal, vm, g, opts.SubcktDepth)
			bestSize, bestCost, curCost := s.BestSizeDeterministic(opts.maxStep())
			if bestSize != d.Circuit.Gate(g).SizeIdx && bestCost < curCost-opts.minGain() {
				d.Circuit.Gate(g).SizeIdx = bestSize
				resized++
			}
		}
		subEvals += int64(len(path))
		costA := az.refresh().STA.MaxArrival
		sizesA := d.Circuit.SizeSnapshot()

		// Move B: uniform one-notch bump of the whole path (same
		// coordination escape as the statistical optimizer).
		d.Circuit.RestoreSizes(startSizes)
		bumped := 0
		for _, g := range path {
			gate := d.Circuit.Gate(g)
			if gate.SizeIdx+1 < d.Lib.NumSizes(cells.Kind(gate.CellRef)) {
				gate.SizeIdx++
				bumped++
			}
		}
		move := "per-gate"
		if bumped > 0 && az.refresh().STA.MaxArrival < costA {
			resized = bumped
			move = "path-bump"
		}
		if move == "per-gate" {
			d.Circuit.RestoreSizes(sizesA)
		}
		// Re-refresh so `nominal` is the analysis of the winning sizing
		// (a no-op repair when move A won and was never left).
		nominal = az.refresh()
		res.History = append(res.History, IterStats{
			Iter: iter, Cost: cur.Cost, Mean: cur.Mean, Area: cur.Area,
			PathLen: len(path), Resized: resized, Move: move,
		})
		opts.emit(Checkpoint{
			Op: "mean-delay", Iter: iter + 1, Cost: nominal.STA.MaxArrival,
			Sizes: d.Circuit.SizeSnapshot(), BestSizes: bestSizes,
			Best: best, Bad: bad, Initial: res.Initial,
		})
		if resized == 0 {
			res.StoppedBy = "converged"
			break
		}
	}

	finalArr := az.refresh().STA.MaxArrival
	final := Snapshot{Mean: finalArr, Cost: finalArr, Area: d.Area()}
	if best.Cost < final.Cost {
		d.Circuit.RestoreSizes(bestSizes)
		final = best
	}
	res.Final = final
	res.Runtime = time.Since(start)
	res.AnalysisTime = az.dur
	res.Evals = az.evals + subEvals
	res.NodeEvals = az.nodeEvals
	return res, nil
}

// RecoverArea downsizes gates whose size does not pay for itself,
// in globally verified batches: a gate is shrunk one step when its
// subcircuit cost increases by no more than a small local slack, and a
// whole batch is kept only if the verified global cost stays within
// slackFrac of the cost at entry (otherwise the local slack is halved
// and the batch retried). Gates are visited in reverse topological order
// so output-side fat is trimmed first. Returns the area saved (um^2).
func RecoverArea(d *synth.Design, vm *variation.Model, opts Options, slackFrac float64) (float64, error) {
	if math.IsNaN(slackFrac) || math.IsInf(slackFrac, 0) || slackFrac < 0 {
		return 0, fmt.Errorf("core: negative slack fraction %g", slackFrac)
	}
	_, saved, err := recoverArea(d, vm, opts, slackFrac, newStatAnalyzer(d, vm, opts))
	return saved, err
}

// recoverArea is the shared runner behind RecoverArea and the
// "recoverarea" Optimizer backend: the historical pass loop, unchanged,
// plus a Result so the interface port reports the same fields as every
// other backend. The sizing trajectory is bit-identical to the
// pre-refactor RecoverArea (the added snapshots are pure reads).
func recoverArea(d *synth.Design, vm *variation.Model, opts Options, slackFrac float64, az *analyzer) (*Result, float64, error) {
	if err := opts.validate(); err != nil {
		return nil, 0, err
	}
	if math.IsNaN(slackFrac) || math.IsInf(slackFrac, 0) || slackFrac < 0 {
		return nil, 0, fmt.Errorf("core: negative slack fraction %g", slackFrac)
	}
	start := time.Now()
	res := &Result{StoppedBy: "max-iters"}
	var subEvals int64
	ex := fassta.NewExtractor(d)

	resume, err := opts.resumeFor("recover-area", d)
	if err != nil {
		return nil, 0, err
	}
	if resume != nil {
		d.Circuit.RestoreSizes(resume.Sizes)
	}

	full := az.refresh()
	res.Initial = snapshot(d, full, opts.Lambda)
	entryCost := full.Cost(d, opts.Lambda)
	budget := entryCost * (1 + slackFrac)
	area0 := d.Area()
	localSlack := entryCost * slackFrac / 4
	if localSlack <= 0 {
		localSlack = 1e-9
	}
	startPass := 0
	if resume != nil {
		// Loop state exactly as the uninterrupted run carried it at this
		// pass boundary (budget was derived from the ORIGINAL entry cost,
		// area0 from the pre-recovery area — both come from the
		// checkpoint, not from the resumed design).
		budget = resume.Budget
		area0 = resume.Area0
		localSlack = resume.LocalSlack
		startPass = resume.Iter
		res.Iterations = startPass
		if resume.Initial != (Snapshot{}) {
			res.Initial = resume.Initial
		}
	}

	topo := d.Circuit.MustTopoOrder()
	for pass := startPass; pass < 40; pass++ {
		if err := opts.ctxErr(); err != nil {
			return nil, 0, err
		}
		res.Iterations = pass + 1
		before := d.Circuit.SizeSnapshot()
		changed := 0
		for i := len(topo) - 1; i >= 0; i-- {
			g := d.Circuit.Gate(topo[i])
			if !g.Fn.IsLogic() || g.SizeIdx == 0 {
				continue
			}
			s := ex.Extract(full, vm, g.ID, opts.SubcktDepth)
			subEvals++
			curCost := s.Cost(g.SizeIdx, opts.Lambda)
			if s.Cost(g.SizeIdx-1, opts.Lambda) <= curCost+localSlack {
				g.SizeIdx--
				changed++
			}
		}
		if changed == 0 {
			res.StoppedBy = "converged"
			break
		}
		newFull := az.refresh()
		newCost := newFull.Cost(d, opts.Lambda)
		if newCost > budget {
			// Batch overshot the global budget: roll back and retry more
			// conservatively, re-refreshing so `full` again reflects the
			// pre-batch sizing (served by the engine's Rollback).
			d.Circuit.RestoreSizes(before)
			full = az.refresh()
			localSlack /= 2
			if localSlack < 1e-6 {
				res.StoppedBy = "converged"
				break
			}
			opts.emit(Checkpoint{
				Op: "recover-area", Iter: pass + 1, Cost: full.Cost(d, opts.Lambda),
				Sizes: d.Circuit.SizeSnapshot(), Initial: res.Initial,
				LocalSlack: localSlack, Budget: budget, Area0: area0,
			})
			continue
		}
		full = newFull
		opts.emit(Checkpoint{
			Op: "recover-area", Iter: pass + 1, Cost: newCost,
			Sizes: d.Circuit.SizeSnapshot(), Initial: res.Initial,
			LocalSlack: localSlack, Budget: budget, Area0: area0,
		})
	}
	res.Final = snapshot(d, az.refresh(), opts.Lambda)
	res.Runtime = time.Since(start)
	res.AnalysisTime = az.dur
	res.Evals = az.evals + subEvals
	res.NodeEvals = az.nodeEvals
	return res, area0 - d.Area(), nil
}

// Describe formats a one-line summary of a run for logs and CLIs.
func (r *Result) Describe() string {
	dMean := pct(r.Final.Mean, r.Initial.Mean)
	dSigma := pct(r.Final.Sigma, r.Initial.Sigma)
	dArea := pct(r.Final.Area, r.Initial.Area)
	return fmt.Sprintf("iters=%d mean %+.1f%% sigma %+.1f%% area %+.1f%% (%s, %v)",
		r.Iterations, dMean, dSigma, dArea, r.StoppedBy, r.Runtime.Round(time.Millisecond))
}

func pct(after, before float64) float64 {
	if before == 0 {
		return 0
	}
	return 100 * (after - before) / before
}

// SizeHistogram returns how many logic gates sit at each size index,
// useful for inspecting what the optimizer did.
func SizeHistogram(d *synth.Design) []int {
	max := 0
	for _, k := range d.Lib.Kinds() {
		if n := d.Lib.NumSizes(k); n > max {
			max = n
		}
	}
	h := make([]int, max)
	for i := range d.Circuit.Gates {
		g := &d.Circuit.Gates[i]
		if g.Fn.IsLogic() && g.CellRef >= 0 {
			h[g.SizeIdx]++
		}
	}
	return h
}
