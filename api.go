package repro

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dpdf"
	"repro/internal/gen"
	"repro/internal/montecarlo"
	"repro/internal/ssta"
	"repro/internal/sta"
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

// LoadBench loads an ISCAS .bench netlist onto the default library under
// the default budgets: Load(r, LoadSpec{Name: name}).
func LoadBench(r io.Reader, name string) (*Design, error) {
	return Load(r, LoadSpec{Name: name})
}

// defaultLibrary is the library every FromCircuit design maps onto.
// Libraries are immutable once built, so one instance serves them all.
var defaultLibrary = sync.OnceValue(cells.Default90nm)

// FromCircuit maps an arbitrary generic netlist onto the default library.
// The library is built once per process and shared by every design
// FromCircuit returns; callers must never modify it (map onto a fresh
// cells.Default90nm through LoadSpec.Library to experiment with one).
func FromCircuit(c *circuit.Circuit) (*Design, error) {
	return mapDesign(c, defaultLibrary())
}

// mapDesign maps c onto lib under lib's default variation model.
func mapDesign(c *circuit.Circuit, lib *cells.Library) (*Design, error) {
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
// The netlist is the design's own, but its library (synth.Design.Lib) is
// shared with every clone and, for FromCircuit designs, with every other
// such design in the process: never modify it.
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
	// MaxIters caps the optimizers' outer loops: 0 means the engine
	// default, 100 iterations, or 40 passes for the recoverarea backend.
	// Every backend honours it, so sstad's max_iters memo-key term
	// separates runs whose answers differ. Analysis entry points ignore
	// it.
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
	// the end of every outer iteration. Feeding a checkpoint back through
	// Resume restarts the optimizer so that it retraces the uninterrupted
	// run bit-for-bit (the engines are deterministic and every analysis
	// is a pure function of the sizing vector). Analysis entry points
	// ignore it. The callback runs on the optimizer goroutine and should
	// return quickly.
	Checkpoint func(OptCheckpoint)
	// Resume, when non-nil, restarts an optimizer from a previously
	// emitted checkpoint instead of the design's current sizing. The
	// checkpoint must come from the same operation on a design of the
	// same shape.
	Resume *OptCheckpoint
	// Optimizer names the sizing backend Design.Optimize runs: one of
	// Optimizers() ("statgreedy", "sensitivity", "meandelay",
	// "recoverarea"); empty means the default, "statgreedy". The
	// analysis entry points ignore it.
	Optimizer string
	// SlackFrac is the cost slack of the "recoverarea" backend: it trims
	// gate sizes that do not pay for themselves while the verified cost
	// stays within SlackFrac of its value at entry. 0 means
	// DefaultSlackFrac; the other backends ignore it.
	SlackFrac float64
	// Seed keys the sensitivity backend's deterministic tie-breaking
	// between equal-score moves; any value (including the 0 default) is
	// fully deterministic. The greedy backends ignore it.
	Seed int64
}

// OptSnapshot is a point-in-time statistical summary inside a
// checkpoint: mean, sigma and cost in ps, area in um^2.
type OptSnapshot = core.Snapshot

// OptCheckpoint is a resumable optimizer state, serializable as JSON
// for persistence (sstad journals one per optimization iteration). See
// RunOptions.Checkpoint for the exactness guarantee.
type OptCheckpoint = core.Checkpoint

// Validate rejects execution options no engine can honor: negative
// worker counts, PDF resolutions or iteration caps, and negative or
// non-finite slack fractions. The zero value is always valid. Entry
// points call it before touching the design, so an invalid request
// never mutates anything.
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
	if math.IsNaN(o.SlackFrac) || math.IsInf(o.SlackFrac, 0) || o.SlackFrac < 0 {
		return fmt.Errorf("repro: invalid slack fraction %g", o.SlackFrac)
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
//
// Yield and PeriodForYield read a FULLSSTA circuit-delay PDF. An
// Analysis from Analyze, AnalyzeOpts or AnalyzeCtx is that FULLSSTA
// pass. One from MonteCarloOpts or MonteCarloFromSamples runs the pass
// on its first yield query, for the sizing the design had when the
// Analysis was made; an Analysis that is never asked for a yield never
// pays for it. Either way the Analysis keeps only a copy of the circuit
// PDF, not the engine that computed it.
type Analysis struct {
	// Mean and Sigma are the first two moments of the circuit delay (the
	// max over all primary outputs), in ps.
	Mean, Sigma float64
	// NominalDelay is the deterministic STA delay, ps.
	NominalDelay float64
	// PDFX and PDFY sample the circuit-delay density for plotting.
	PDFX, PDFY []float64

	backing *yieldBacking
}

// yieldBacking is the FULLSSTA circuit-delay PDF behind an Analysis's
// yield queries, detached from the engine's arena: set up front, or
// made by build once, on first use.
type yieldBacking struct {
	once  sync.Once
	build func() dpdf.PDF
	pdf   *dpdf.PDF
}

func (b *yieldBacking) circuitPDF() dpdf.PDF {
	b.once.Do(func() {
		if b.pdf == nil {
			pdf := b.build()
			b.pdf, b.build = &pdf, nil
		}
	})
	return *b.pdf
}

// lazyBacking defers the FULLSSTA pass behind a Monte-Carlo Analysis to
// its first yield query, pinned to the design's sizing now: a design
// resized in between is analyzed through a clone restored to this
// sizing. The first query reads the design, so it must not run
// concurrently with a call that resizes it.
func (d *Design) lazyBacking(opts RunOptions) *yieldBacking {
	sizes := d.Sizes()
	so := opts.ssta()
	return &yieldBacking{build: func() dpdf.PDF {
		at := d
		if !slices.Equal(d.Sizes(), sizes) {
			at = d.Clone()
			at.d.Circuit.RestoreSizes(sizes)
		}
		return ssta.Analyze(at.d, at.vm, so).CircuitPDF.Clone()
	}}
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
	pdf := full.CircuitPDF.Clone()
	return &Analysis{
		Mean:         full.Mean,
		Sigma:        full.Sigma,
		NominalDelay: full.STA.MaxArrival,
		PDFX:         xs,
		PDFY:         ps,
		backing:      &yieldBacking{pdf: &pdf},
	}
}

// AnalyzeCtx is AnalyzeOpts with an explicit context: it refuses to start
// (returning ctx.Err()) when ctx is already cancelled, and records ctx in
// the options so future cancellation points inherit it. Like AnalyzeOpts
// it runs its FULLSSTA pass eagerly, and the pass is not internally
// interruptible — it completes in milliseconds to seconds — so a
// cancellation arriving mid-analysis is only reported by whichever
// caller polls ctx next.
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
// On a Monte-Carlo Analysis the first yield query runs FULLSSTA (see
// Analysis).
func (a *Analysis) Yield(T float64) float64 { return a.backing.circuitPDF().CDF(T) }

// PeriodForYield returns the smallest clock period achieving the target
// yield. On a Monte-Carlo Analysis the first yield query runs FULLSSTA
// (see Analysis).
func (a *Analysis) PeriodForYield(target float64) (float64, error) {
	return yield.PeriodFor(a.backing.circuitPDF(), target)
}

// MonteCarlo runs the golden-reference sampling engine with default
// options. Results depend only on (samples, seed), never on the host's
// core count.
func (d *Design) MonteCarlo(samples int, seed int64) (*Analysis, error) {
	return d.MonteCarloOpts(samples, seed, RunOptions{})
}

// MonteCarloOpts is MonteCarlo with explicit execution options.
// NominalDelay comes from deterministic STA. The FULLSSTA pass behind
// Yield and PeriodForYield runs, with the same options, on the first
// such query, for the sizing the design has now (see Analysis).
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
	return d.monteCarloAnalysis(mc, opts), nil
}

// monteCarloAnalysis wraps a Monte-Carlo result for the design's current
// sizing: moments and empirical PDF from mc, the nominal delay from
// deterministic STA and a lazy FULLSSTA backing for yield queries.
func (d *Design) monteCarloAnalysis(mc *montecarlo.Result, opts RunOptions) *Analysis {
	xs, ps := mc.PDF(15).Support()
	return &Analysis{
		Mean: mc.Mean, Sigma: mc.Sigma,
		NominalDelay: sta.Analyze(d.d).MaxArrival,
		PDFX:         xs, PDFY: ps,
		backing: d.lazyBacking(opts),
	}
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
// empirical PDF, the deterministic STA delay, and a FULLSSTA pass that
// runs on the first Yield or PeriodForYield query (see Analysis).
func (d *Design) MonteCarloFromSamples(samples []float64, opts RunOptions) (*Analysis, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	mc, err := montecarlo.FromSamples(samples)
	if err != nil {
		return nil, err
	}
	return d.monteCarloAnalysis(mc, opts), nil
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

// DefaultSlackFrac is the cost slack a zero RunOptions.SlackFrac
// selects for the "recoverarea" backend. sstad normalizes a zero
// slack_frac to it in its result-memo key.
const DefaultSlackFrac = core.DefaultSlackFrac

// Optimize runs the sizing backend named by opts.Optimizer (empty =
// "statgreedy", the paper's StatisticalGreedy) with the sigma weight
// lambda. The design is modified in place. This is the one optimizer
// door: the -optimizer flag, sstad's "optimizer" field and the
// OptimizeStatistical/OptimizeMeanDelay shorthands all go through it.
func (d *Design) Optimize(lambda float64, opts RunOptions) (OptResult, error) {
	if err := validateLambda(lambda); err != nil {
		return OptResult{}, err
	}
	if err := opts.Validate(); err != nil {
		return OptResult{}, err
	}
	o, _ := core.LookupOptimizer(opts.Optimizer) // existence checked by Validate
	r, err := o.Run(d.d, d.vm, core.Options{
		Lambda: lambda, PDFPoints: opts.PDFPoints, Workers: opts.Workers,
		MaxIters: opts.MaxIters, Ctx: opts.Ctx, Seed: opts.Seed,
		SlackFrac:  opts.SlackFrac,
		Checkpoint: opts.Checkpoint, Resume: opts.Resume,
	})
	if err != nil {
		return OptResult{}, err
	}
	return fromCore(r), nil
}

// OptimizeMeanDelay runs the deterministic mean-delay greedy sizer (the
// paper's "Original" designs are produced by running this on a freshly
// mapped netlist). The design is modified in place. It is
// Optimize(0, RunOptions{Optimizer: "meandelay"}).
func (d *Design) OptimizeMeanDelay() (OptResult, error) {
	return d.Optimize(0, RunOptions{Optimizer: "meandelay"})
}

// OptimizeStatistical runs the paper's StatisticalGreedy variance
// optimizer with the sigma weight lambda (the paper evaluates 3 and 9).
// The design is modified in place. It is Optimize(lambda, RunOptions{}).
func (d *Design) OptimizeStatistical(lambda float64) (OptResult, error) {
	return d.Optimize(lambda, RunOptions{})
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
	path := sta.Analyze(d.d).CriticalPath(d.d)
	names := make([]string, len(path))
	for i, id := range path {
		names[i] = d.d.Circuit.Gate(id).Name
	}
	return names
}
