package repro

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/montecarlo"
	"repro/internal/ssta"
	"repro/internal/synth"
	"repro/internal/variation"
	"repro/internal/wnss"
	"repro/internal/yield"
)

// Design is a technology-mapped circuit bound to the built-in library and
// variation model, ready for analysis and optimization.
type Design struct {
	d  *synth.Design
	vm *variation.Model
}

// Benchmarks returns the benchmark names of the paper's Table 1, in table
// order (alu1..alu3, c432..c7552).
func Benchmarks() []string { return gen.ISCASNames() }

// Generate builds the named benchmark circuit (see Benchmarks), maps it
// onto the default library and attaches the default variation model.
func Generate(name string) (*Design, error) {
	c, err := gen.ISCASLike(name)
	if err != nil {
		return nil, err
	}
	return FromCircuit(c)
}

// LoadBench parses an ISCAS .bench netlist and maps it.
func LoadBench(r io.Reader, name string) (*Design, error) {
	c, err := benchfmt.Parse(r, name)
	if err != nil {
		return nil, err
	}
	return FromCircuit(c)
}

// FromCircuit maps an arbitrary generic netlist onto the default library.
func FromCircuit(c *circuit.Circuit) (*Design, error) {
	lib := cells.Default90nm()
	d, err := synth.Map(c, lib)
	if err != nil {
		return nil, err
	}
	return &Design{d: d, vm: variation.Default(lib)}, nil
}

// SaveBench writes the design's netlist in .bench format (sizes are not
// representable in .bench and are not persisted).
func (d *Design) SaveBench(w io.Writer) error {
	return benchfmt.Write(w, d.d.Circuit)
}

// Clone returns an independent copy of the design (shared library and
// variation model, cloned netlist and sizing).
func (d *Design) Clone() *Design {
	return &Design{
		d:  &synth.Design{Circuit: d.d.Circuit.Clone(), Lib: d.d.Lib},
		vm: d.vm,
	}
}

// Internal exposes the underlying mapped design and variation model for
// advanced callers inside this module (the experiment harness, benches).
func (d *Design) Internal() (*synth.Design, *variation.Model) { return d.d, d.vm }

// Sizes returns a copy of the design's sizing vector: one library size
// index per gate, in gate order. Two runs of a deterministic optimizer
// agree exactly iff their sizing vectors are identical, so this is the
// canonical equality oracle for resume/recovery tests and for diffing
// optimization outcomes.
func (d *Design) Sizes() []int { return d.d.Circuit.SizeSnapshot() }

// Stats summarizes the design.
type Stats struct {
	Name    string
	Gates   int     // logic gates
	Inputs  int     // primary inputs
	Outputs int     // primary outputs
	Depth   int     // logic levels
	Area    float64 // total cell area, um^2
}

// Stats returns the design's current statistics.
func (d *Design) Stats() Stats {
	s := d.d.Circuit.ComputeStats()
	return Stats{
		Name:    d.d.Circuit.Name,
		Gates:   s.Gates,
		Inputs:  s.Inputs,
		Outputs: s.Outputs,
		Depth:   s.Depth,
		Area:    d.d.Area(),
	}
}

// RunOptions gathers the execution knobs shared by every analysis and
// optimization entry point. The zero value is always valid and means
// "library defaults".
type RunOptions struct {
	// Workers bounds the number of goroutines the engines may use: 0
	// means one worker per available CPU, 1 runs serially. It changes
	// wall time only: FULLSSTA, Monte Carlo and every optimizer produce
	// bit-identical results for every value.
	Workers int
	// PDFPoints caps the discrete-PDF resolution of FULLSSTA (0 = the
	// engine default).
	PDFPoints int
	// MaxIters caps the optimizers' outer loops (0 = the engine default,
	// 100). Analysis entry points ignore it.
	MaxIters int
	// Ctx, when non-nil, lets the long-running entry points be cancelled
	// mid-run: the optimizers poll it at the top of every outer
	// iteration and the Monte-Carlo engine once per few dozen trials per
	// shard, returning ctx.Err() as soon as cancellation is observed.
	// nil means the run can never be cancelled. Single FULLSSTA analyses
	// (Analyze, AnalyzeOpts) are not cancellation points — they finish
	// in milliseconds-to-seconds; use AnalyzeCtx to reject work on an
	// already-cancelled context.
	Ctx context.Context
	// Checkpoint, when non-nil, receives a resumable optimizer state at
	// the end of every CheckpointEvery-th outer iteration. Feeding a
	// checkpoint back through Resume restarts the optimizer so that it
	// retraces the uninterrupted run bit-for-bit (the engines are
	// deterministic and every analysis is a pure function of the sizing
	// vector). Analysis entry points ignore it. The callback runs on the
	// optimizer goroutine and should return quickly.
	Checkpoint func(OptCheckpoint)
	// CheckpointEvery is the checkpoint emission period in outer
	// iterations; 0 means every iteration.
	CheckpointEvery int
	// Resume, when non-nil, restarts an optimizer from a previously
	// emitted checkpoint instead of the design's current sizing. The
	// checkpoint must come from the same operation on a design of the
	// same shape.
	Resume *OptCheckpoint
	// Optimizer names the sizing backend Design.Optimize runs: one of
	// Optimizers() ("statgreedy", "sensitivity", "meandelay",
	// "recoverarea"); empty means the default, "statgreedy". The
	// operation-specific entry points (OptimizeStatisticalOpts, ...)
	// ignore it — they name their backend in the method.
	Optimizer string
	// Seed keys the sensitivity backend's deterministic tie-breaking
	// between equal-score moves; any value (including the 0 default) is
	// fully deterministic. The greedy backends ignore it.
	Seed int64
}

// OptSnapshot is a point-in-time statistical summary inside a
// checkpoint (the public mirror of the optimizer's internal snapshot).
type OptSnapshot struct {
	Mean  float64 `json:"mean"`
	Sigma float64 `json:"sigma"`
	Cost  float64 `json:"cost"`
	Area  float64 `json:"area"`
}

// OptCheckpoint is a resumable optimizer state, serializable as JSON
// for persistence (sstad journals one per optimization iteration). Its
// fields mirror internal/core.Checkpoint; see RunOptions.Checkpoint for
// the exactness guarantee.
type OptCheckpoint struct {
	Op         string      `json:"op"`
	Iter       int         `json:"iter"`
	Cost       float64     `json:"cost"`
	Sizes      []int       `json:"sizes"`
	BestSizes  []int       `json:"best_sizes,omitempty"`
	Best       OptSnapshot `json:"best"`
	Bad        int         `json:"bad"`
	Initial    OptSnapshot `json:"initial"`
	LocalSlack float64     `json:"local_slack,omitempty"`
	Budget     float64     `json:"budget,omitempty"`
	Area0      float64     `json:"area0,omitempty"`
}

func snapFromCore(s core.Snapshot) OptSnapshot {
	return OptSnapshot{Mean: s.Mean, Sigma: s.Sigma, Cost: s.Cost, Area: s.Area}
}

func snapToCore(s OptSnapshot) core.Snapshot {
	return core.Snapshot{Mean: s.Mean, Sigma: s.Sigma, Cost: s.Cost, Area: s.Area}
}

func checkpointFromCore(cp core.Checkpoint) OptCheckpoint {
	return OptCheckpoint{
		Op: cp.Op, Iter: cp.Iter, Cost: cp.Cost,
		Sizes: cp.Sizes, BestSizes: cp.BestSizes,
		Best: snapFromCore(cp.Best), Bad: cp.Bad, Initial: snapFromCore(cp.Initial),
		LocalSlack: cp.LocalSlack, Budget: cp.Budget, Area0: cp.Area0,
	}
}

func checkpointToCore(cp *OptCheckpoint) *core.Checkpoint {
	if cp == nil {
		return nil
	}
	return &core.Checkpoint{
		Op: cp.Op, Iter: cp.Iter, Cost: cp.Cost,
		Sizes: cp.Sizes, BestSizes: cp.BestSizes,
		Best: snapToCore(cp.Best), Bad: cp.Bad, Initial: snapToCore(cp.Initial),
		LocalSlack: cp.LocalSlack, Budget: cp.Budget, Area0: cp.Area0,
	}
}

// checkpointing translates the public checkpoint knobs into their core
// forms, shared by every optimizer entry point.
func (o RunOptions) checkpointing() (func(core.Checkpoint), int, *core.Checkpoint) {
	var cb func(core.Checkpoint)
	if o.Checkpoint != nil {
		public := o.Checkpoint
		cb = func(cp core.Checkpoint) { public(checkpointFromCore(cp)) }
	}
	return cb, o.CheckpointEvery, checkpointToCore(o.Resume)
}

// Validate rejects execution options no engine can honor: negative
// worker counts, PDF resolutions or iteration caps. The zero value is
// always valid. Entry points call it before touching the design, so an
// invalid request never mutates anything.
func (o RunOptions) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("repro: negative worker count %d", o.Workers)
	}
	if o.PDFPoints < 0 {
		return fmt.Errorf("repro: negative PDF resolution %d", o.PDFPoints)
	}
	if o.MaxIters < 0 {
		return fmt.Errorf("repro: negative iteration cap %d", o.MaxIters)
	}
	if o.CheckpointEvery < 0 {
		return fmt.Errorf("repro: negative checkpoint period %d", o.CheckpointEvery)
	}
	if _, ok := core.LookupOptimizer(o.Optimizer); !ok {
		return fmt.Errorf("repro: unknown optimizer %q (want one of %v)", o.Optimizer, Optimizers())
	}
	return nil
}

// validateLambda rejects sigma weights that would poison every PDF
// downstream: NaN and Inf propagate silently through mu + lambda*sigma
// and surface as garbage results instead of an error.
func validateLambda(lambda float64) error {
	if math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return fmt.Errorf("repro: non-finite lambda %g", lambda)
	}
	if lambda < 0 {
		return fmt.Errorf("repro: negative lambda %g", lambda)
	}
	return nil
}

func (o RunOptions) ssta() ssta.Options {
	return ssta.Options{Points: o.PDFPoints, Workers: o.Workers}
}

// Analysis reports the statistical timing of a design.
type Analysis struct {
	// Mean and Sigma are the first two moments of the circuit delay (the
	// max over all primary outputs), in ps.
	Mean, Sigma float64
	// NominalDelay is the deterministic STA delay, ps.
	NominalDelay float64
	// PDFX and PDFY sample the circuit-delay density for plotting.
	PDFX, PDFY []float64

	full *ssta.Result
}

// Analyze runs FULLSSTA (the accurate discrete-PDF engine) with default
// options.
func (d *Design) Analyze() *Analysis {
	return d.AnalyzeOpts(RunOptions{})
}

// AnalyzeOpts is Analyze with explicit execution options.
func (d *Design) AnalyzeOpts(opts RunOptions) *Analysis {
	full := ssta.Analyze(d.d, d.vm, opts.ssta())
	xs, ps := full.CircuitPDF.Support()
	return &Analysis{
		Mean:         full.Mean,
		Sigma:        full.Sigma,
		NominalDelay: full.STA.MaxArrival,
		PDFX:         xs,
		PDFY:         ps,
		full:         full,
	}
}

// AnalyzeCtx is AnalyzeOpts with an explicit context: it refuses to start
// (returning ctx.Err()) when ctx is already cancelled, and records ctx in
// the options so future cancellation points inherit it. One FULLSSTA pass
// is not internally interruptible — it completes in milliseconds to
// seconds — so a cancellation arriving mid-analysis is only reported by
// whichever caller polls ctx next.
func (d *Design) AnalyzeCtx(ctx context.Context, opts RunOptions) (*Analysis, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		opts.Ctx = ctx
	}
	return d.AnalyzeOpts(opts), nil
}

// Yield returns the probability that the circuit meets clock period T.
func (a *Analysis) Yield(T float64) float64 { return a.full.Yield(T) }

// PeriodForYield returns the smallest clock period achieving the target
// yield.
func (a *Analysis) PeriodForYield(target float64) (float64, error) {
	return yield.PeriodFor(a.full.CircuitPDF, target)
}

// MonteCarlo runs the golden-reference sampling engine with default
// options. Results depend only on (samples, seed), never on the host's
// core count.
func (d *Design) MonteCarlo(samples int, seed int64) (*Analysis, error) {
	return d.MonteCarloOpts(samples, seed, RunOptions{})
}

// MonteCarloOpts is MonteCarlo with explicit execution options; the same
// options also drive the FULLSSTA pass that backs Yield queries on the
// returned Analysis.
func (d *Design) MonteCarloOpts(samples int, seed int64, opts RunOptions) (*Analysis, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	mc, err := montecarlo.AnalyzeOpts(d.d, d.vm, montecarlo.Options{
		Trials: samples, Seed: seed, Workers: opts.Workers, Ctx: opts.Ctx,
	})
	if err != nil {
		return nil, err
	}
	p := mc.PDF(15)
	xs, ps := p.Support()
	full := ssta.Analyze(d.d, d.vm, opts.ssta()) // for Yield support
	return &Analysis{
		Mean: mc.Mean, Sigma: mc.Sigma,
		NominalDelay: full.STA.MaxArrival,
		PDFX:         xs, PDFY: ps,
		full: full,
	}, nil
}

// MonteCarloShard draws the circuit-delay samples of trials [lo, hi) of
// a Monte-Carlo run rooted at seed, in trial order. Every trial's RNG
// stream is keyed by (seed, absolute trial index) alone, so
// concatenating the shards of any partition of [0, n) — in range order,
// regardless of which process or host drew each — and folding them
// through MonteCarloFromSamples reproduces MonteCarloOpts(n, seed, ...)
// bit-for-bit. This pair is the work unit of distributed Monte Carlo
// (see internal/cluster).
func (d *Design) MonteCarloShard(seed int64, lo, hi int, opts RunOptions) ([]float64, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return montecarlo.SampleRange(d.d, d.vm, montecarlo.Options{
		Seed: seed, Workers: opts.Workers, Ctx: opts.Ctx,
	}, lo, hi)
}

// MonteCarloFromSamples folds an externally assembled Monte-Carlo sample
// set (the concatenation of MonteCarloShard ranges, in trial order) into
// the same Analysis MonteCarloOpts would have produced had it drawn the
// samples itself: moments accumulated over the sorted sample set, the
// empirical PDF, and a FULLSSTA pass backing the Yield queries.
func (d *Design) MonteCarloFromSamples(samples []float64, opts RunOptions) (*Analysis, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	mc, err := montecarlo.FromSamples(samples)
	if err != nil {
		return nil, err
	}
	p := mc.PDF(15)
	xs, ps := p.Support()
	full := ssta.Analyze(d.d, d.vm, opts.ssta()) // for Yield support
	return &Analysis{
		Mean: mc.Mean, Sigma: mc.Sigma,
		NominalDelay: full.STA.MaxArrival,
		PDFX:         xs, PDFY: ps,
		full: full,
	}, nil
}

// OptResult summarizes one optimization run.
type OptResult struct {
	MeanBefore, MeanAfter   float64
	SigmaBefore, SigmaAfter float64
	AreaBefore, AreaAfter   float64
	Iterations              int
	Runtime                 time.Duration
	// AnalysisTime is the share of Runtime spent in whole-circuit timing
	// analysis: the initial analysis, the incremental dirty-cone repairs
	// and the batched what-if passes.
	AnalysisTime time.Duration
	StoppedBy    string
	// Evals counts the timing evaluations the run requested
	// (whole-circuit analyses, batched what-if candidates, subcircuit
	// scorings) and NodeEvals the per-gate evaluations behind the
	// whole-circuit work: the work-done metrics the cross-optimizer
	// scoreboard compares. Like the timing fields they are not part of
	// the bit-exactness contract.
	Evals     int64
	NodeEvals int64
}

// DeltaSigmaPct returns the sigma change in percent (negative = reduced).
func (r OptResult) DeltaSigmaPct() float64 {
	if r.SigmaBefore == 0 {
		return 0
	}
	return 100 * (r.SigmaAfter - r.SigmaBefore) / r.SigmaBefore
}

// DeltaMeanPct returns the mean change in percent.
func (r OptResult) DeltaMeanPct() float64 {
	if r.MeanBefore == 0 {
		return 0
	}
	return 100 * (r.MeanAfter - r.MeanBefore) / r.MeanBefore
}

// DeltaAreaPct returns the area change in percent.
func (r OptResult) DeltaAreaPct() float64 {
	if r.AreaBefore == 0 {
		return 0
	}
	return 100 * (r.AreaAfter - r.AreaBefore) / r.AreaBefore
}

func fromCore(r *core.Result) OptResult {
	return OptResult{
		MeanBefore: r.Initial.Mean, MeanAfter: r.Final.Mean,
		SigmaBefore: r.Initial.Sigma, SigmaAfter: r.Final.Sigma,
		AreaBefore: r.Initial.Area, AreaAfter: r.Final.Area,
		Iterations:   r.Iterations,
		Runtime:      r.Runtime,
		AnalysisTime: r.AnalysisTime,
		StoppedBy:    r.StoppedBy,
		Evals:        r.Evals,
		NodeEvals:    r.NodeEvals,
	}
}

// Optimizers returns the names of the registered sizing backends,
// sorted — the values RunOptions.Optimizer (and the CLIs' -optimizer
// flag, and sstad's "optimizer" request field) accept.
func Optimizers() []string { return core.Optimizers() }

// DefaultOptimizer is the backend an empty RunOptions.Optimizer (or an
// empty wire-level "optimizer" field) selects: the paper's
// StatisticalGreedy. sstad normalizes the empty name to this one in its
// result-memo key, so the default and an explicit request for it share
// cached results.
const DefaultOptimizer = core.DefaultOptimizer

// Optimize runs the sizing backend named by opts.Optimizer (empty =
// "statgreedy", the paper's StatisticalGreedy) with the sigma weight
// lambda. The design is modified in place. The backend-specific entry
// points remain for the two historical flows (OptimizeStatisticalOpts,
// OptimizeMeanDelayOpts, RecoverAreaOpts); this is the uniform door the
// -optimizer flag and sstad's "optimizer" field go through.
func (d *Design) Optimize(lambda float64, opts RunOptions) (OptResult, error) {
	if err := validateLambda(lambda); err != nil {
		return OptResult{}, err
	}
	if err := opts.Validate(); err != nil {
		return OptResult{}, err
	}
	o, _ := core.LookupOptimizer(opts.Optimizer) // existence checked by Validate
	cb, every, resume := opts.checkpointing()
	r, err := o.Run(d.d, d.vm, core.Options{
		Lambda: lambda, PDFPoints: opts.PDFPoints, Workers: opts.Workers,
		MaxIters: opts.MaxIters, Ctx: opts.Ctx, Seed: opts.Seed,
		Checkpoint: cb, CheckpointEvery: every, Resume: resume,
	})
	if err != nil {
		return OptResult{}, err
	}
	return fromCore(r), nil
}

// OptimizeMeanDelay runs the deterministic mean-delay greedy sizer (the
// paper's "Original" designs are produced by running this on a freshly
// mapped netlist). The design is modified in place.
func (d *Design) OptimizeMeanDelay() (OptResult, error) {
	return d.OptimizeMeanDelayOpts(RunOptions{})
}

// OptimizeMeanDelayOpts is OptimizeMeanDelay with explicit execution
// options.
func (d *Design) OptimizeMeanDelayOpts(opts RunOptions) (OptResult, error) {
	if err := opts.Validate(); err != nil {
		return OptResult{}, err
	}
	cb, every, resume := opts.checkpointing()
	r, err := core.MeanDelayGreedy(d.d, d.vm, core.Options{
		MaxIters: opts.MaxIters, Workers: opts.Workers, Ctx: opts.Ctx,
		Checkpoint: cb, CheckpointEvery: every, Resume: resume,
	})
	if err != nil {
		return OptResult{}, err
	}
	return fromCore(r), nil
}

// OptimizeStatistical runs the paper's StatisticalGreedy variance
// optimizer with the sigma weight lambda (the paper evaluates 3 and 9).
// The design is modified in place.
func (d *Design) OptimizeStatistical(lambda float64) (OptResult, error) {
	return d.OptimizeStatisticalOpts(lambda, RunOptions{})
}

// OptimizeStatisticalOpts is OptimizeStatistical with explicit execution
// options (worker count, PDF resolution).
func (d *Design) OptimizeStatisticalOpts(lambda float64, opts RunOptions) (OptResult, error) {
	if err := validateLambda(lambda); err != nil {
		return OptResult{}, err
	}
	if err := opts.Validate(); err != nil {
		return OptResult{}, err
	}
	cb, every, resume := opts.checkpointing()
	r, err := core.StatisticalGreedy(d.d, d.vm, core.Options{
		Lambda: lambda, PDFPoints: opts.PDFPoints, Workers: opts.Workers,
		MaxIters: opts.MaxIters, Ctx: opts.Ctx,
		Checkpoint: cb, CheckpointEvery: every, Resume: resume,
	})
	if err != nil {
		return OptResult{}, err
	}
	return fromCore(r), nil
}

// RecoverArea trims gate sizes that do not pay for themselves, keeping
// the verified statistical cost within slackFrac of its value at entry.
// It returns the area saved in um^2.
func (d *Design) RecoverArea(lambda, slackFrac float64) (float64, error) {
	return d.RecoverAreaOpts(lambda, slackFrac, RunOptions{})
}

// RecoverAreaOpts is RecoverArea with explicit execution options.
func (d *Design) RecoverAreaOpts(lambda, slackFrac float64, opts RunOptions) (float64, error) {
	cb, every, resume := opts.checkpointing()
	return core.RecoverArea(d.d, d.vm, core.Options{
		Lambda: lambda, PDFPoints: opts.PDFPoints, Workers: opts.Workers, Ctx: opts.Ctx,
		Checkpoint: cb, CheckpointEvery: every, Resume: resume,
	}, slackFrac)
}

// WNSSPath traces the worst negative statistical slack path and returns
// the gate names from inputs to the worst output.
func (d *Design) WNSSPath(lambda float64) []string {
	full := ssta.Analyze(d.d, d.vm, ssta.Options{})
	path := wnss.Trace(d.d, full, d.vm, lambda)
	names := make([]string, len(path))
	for i, id := range path {
		names[i] = d.d.Circuit.Gate(id).Name
	}
	return names
}

// CriticalPath traces the deterministic worst-slack path, for comparison
// with WNSSPath.
func (d *Design) CriticalPath() []string {
	full := ssta.Analyze(d.d, d.vm, ssta.Options{})
	path := full.STA.CriticalPath(d.d)
	names := make([]string, len(path))
	for i, id := range path {
		names[i] = d.d.Circuit.Gate(id).Name
	}
	return names
}
