// Package montecarlo is the golden-reference statistical timing engine:
// it draws one delay realization per gate per trial from the variation
// model, propagates longest-path arrivals deterministically, and collects
// the empirical distribution of the circuit delay. FULLSSTA and FASSTA
// are validated against it in tests and in the engine-accuracy
// experiment.
//
// # Seed derivation and shard invariance
//
// Trials are sharded across workers, and every trial owns an independent
// RNG stream derived from the root seed alone — never from the worker
// that happens to run it. Trial t draws its gate delays from a PCG
// generator (math/rand/v2) keyed with the pair
//
//	(SplitMix64(seed)[2t], SplitMix64(seed)[2t+1])
//
// where SplitMix64(seed)[i] is the i-th output of a SplitMix64 stream
// rooted at the user seed (see internal/parallel.SeedStream). Because a
// trial's stream depends only on (seed, t), the full sample set — and
// therefore Mean, Sigma, every quantile and the derived PDF — is
// bit-identical for any worker count. Stored experiment results keyed by
// a seed stay reproducible on any host.
//
// This scheme replaced a single sequential math/rand stream shared by
// all trials; results for a given seed differ numerically from that older
// scheme (same distribution), which is why it is pinned down here.
//
// # Flat walk
//
// SampleRange does not chase circuit.Gate pointers per trial. Once per
// call it builds a flat view of the design: the primary inputs first,
// then every other gate in topological order, each gate's fanins as
// positions in one CSR array, and the nominal delay and sigma of every
// gate in contiguous slices. A trial walks that view front to back. The
// draw sequence is the topological one (inputs draw nothing), the max
// visits fanins in Gate.Fanin order and the outputs are folded in
// Circuit.Outputs order, so every sample has the same bits as a walk
// over the gates themselves. Each shard keeps one PCG generator and
// re-keys it per trial, so trials allocate nothing.
package montecarlo

import (
	"context"
	"fmt"
	"math"
	randv2 "math/rand/v2"
	"sort"
	"sync/atomic"

	"repro/internal/circuit"
	"repro/internal/dpdf"
	"repro/internal/parallel"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/variation"
)

// Options configures a Monte-Carlo run.
type Options struct {
	// Trials is the number of circuit-delay samples to draw (required,
	// > 0).
	Trials int
	// Seed roots every trial's RNG stream (see the package comment for
	// the derivation scheme).
	Seed int64
	// Workers shards trials across goroutines: 0 means one worker per
	// available CPU, 1 forces a serial run. The result is bit-identical
	// for any value.
	Workers int
	// Ctx, when non-nil, lets the run be cancelled mid-flight: every
	// shard polls it once per cancelCheckEvery trials, stops drawing
	// samples as soon as it (or any other shard) observes cancellation,
	// and AnalyzeOpts then returns ctx.Err() instead of a result. nil
	// means the run can never be cancelled.
	Ctx context.Context
}

// cancelCheckEvery is how many trials a shard runs between two polls of
// Options.Ctx: frequent enough that cancellation lands within a small
// fraction of a shard, rare enough that the shared ctx mutex never shows
// up in profiles.
const cancelCheckEvery = 32

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Result is an empirical circuit-delay distribution.
type Result struct {
	Samples []float64 // sorted circuit delays, ps
	Mean    float64
	Sigma   float64
}

// Analyze runs n Monte-Carlo trials with the given seed using the default
// worker count (all CPUs). Nominal delays and slews are frozen from one
// deterministic analysis; each trial perturbs every gate delay
// independently (the paper's model: independent normally distributed gate
// delays).
func Analyze(d *synth.Design, vm *variation.Model, n int, seed int64) (*Result, error) {
	return AnalyzeOpts(d, vm, Options{Trials: n, Seed: seed})
}

// validate rejects sampling requests no run can satisfy; it runs before
// any analysis so an invalid request costs nothing.
func (o Options) validate() error {
	if o.Trials <= 0 {
		return fmt.Errorf("montecarlo: need a positive sample count, got %d", o.Trials)
	}
	if o.Workers < 0 {
		return fmt.Errorf("montecarlo: negative worker count %d", o.Workers)
	}
	return nil
}

// validateRange is validate for explicit-range sampling, where
// Options.Trials is ignored and the [lo, hi) window stands in for it.
func (o Options) validateRange(lo, hi int) error {
	if lo < 0 || hi < lo {
		return fmt.Errorf("montecarlo: bad trial range [%d, %d)", lo, hi)
	}
	if o.Workers < 0 {
		return fmt.Errorf("montecarlo: negative worker count %d", o.Workers)
	}
	return nil
}

// AnalyzeOpts is Analyze with explicit options.
func AnalyzeOpts(d *synth.Design, vm *variation.Model, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n := opts.Trials
	samples, err := SampleRange(d, vm, opts, 0, n)
	if err != nil {
		return nil, err
	}
	sort.Float64s(samples)
	// Moments are accumulated over the SORTED samples so the float
	// summation order — and with it the reported Mean/Sigma — is
	// independent of how trials were sharded.
	var sum, sumsq float64
	for _, cd := range samples {
		sum += cd
		sumsq += cd * cd
	}
	mean := sum / float64(n)
	varc := sumsq/float64(n) - mean*mean
	if varc < 0 {
		varc = 0
	}
	return &Result{Samples: samples, Mean: mean, Sigma: math.Sqrt(varc)}, nil
}

// SampleRange draws the circuit-delay samples of trials [lo, hi) in
// trial order. Because every trial's RNG stream is keyed by the absolute
// trial index alone (see the package comment), the returned slice is a
// contiguous window of the full trial sequence: concatenating disjoint
// ranges that cover [0, n) reproduces exactly the sample set a
// single-node AnalyzeOpts run draws, regardless of how the ranges were
// split across processes or hosts. This is the work unit the cluster
// layer fans out — shard merge bit-exactness rests on this property.
//
// Options.Trials is ignored (the range is explicit); Workers and Ctx
// apply to this range.
func SampleRange(d *synth.Design, vm *variation.Model, opts Options, lo, hi int) ([]float64, error) {
	if err := opts.validateRange(lo, hi); err != nil {
		return nil, err
	}
	net := newFlatNet(d, vm)
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, err
	}
	n := hi - lo
	samples := make([]float64, n)
	stream := parallel.NewSeedStream(opts.Seed)
	var cancelled atomic.Bool
	parallel.Chunks(parallel.Resolve(opts.Workers), n, func(_, clo, chi int) {
		// arrival is indexed by position; the input prefix stays 0.
		arrival := make([]float64, len(net.mean))
		// One generator per shard, re-keyed per trial: Seed sets exactly
		// the state NewPCG would, and rand.Rand keeps none of its own.
		pcg := randv2.NewPCG(0, 0)
		rng := randv2.New(pcg)
		for i := clo; i < chi; i++ {
			if (i-clo)%cancelCheckEvery == 0 {
				if cancelled.Load() {
					return
				}
				if ctxErr(opts.Ctx) != nil {
					cancelled.Store(true)
					return
				}
			}
			trial := lo + i // absolute trial index keys the stream
			pcg.Seed(stream.Uint64(2*trial), stream.Uint64(2*trial+1))
			samples[i] = net.trial(rng, arrival)
		}
	})
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, err
	}
	return samples, nil
}

// flatNet is SampleRange's read-only view of the design, built once per
// call. Gates are renumbered by position: the primary inputs first, then
// every other gate in the circuit's topological order, so the draw
// sequence is the topological one. Position k's fanins are the positions
// fanin[start[k]:start[k+1]], in Gate.Fanin order.
type flatNet struct {
	inputs  int       // positions [0, inputs) are primary inputs; they draw nothing
	start   []int32   // len = positions + 1
	fanin   []int32   // fanin positions, concatenated
	mean    []float64 // nominal gate delay per position, ps
	sigma   []float64 // delay sigma per position, ps
	outputs []int32   // primary-output positions, in Circuit.Outputs order
}

func newFlatNet(d *synth.Design, vm *variation.Model) *flatNet {
	nominal := sta.Analyze(d)
	c := d.Circuit
	topo := c.MustTopoOrder()
	n := len(topo)
	// pos maps a gate ID to its position: inputs, then the rest, each
	// group in topological order.
	pos := make([]int32, n)
	inputs := 0
	for _, id := range topo {
		if c.Gate(id).Fn == circuit.Input {
			pos[id] = int32(inputs)
			inputs++
		}
	}
	k, edges := inputs, 0
	for _, id := range topo {
		if g := c.Gate(id); g.Fn != circuit.Input {
			pos[id] = int32(k)
			k++
			edges += len(g.Fanin)
		}
	}
	net := &flatNet{
		inputs:  inputs,
		start:   make([]int32, n+1),
		fanin:   make([]int32, 0, edges),
		mean:    make([]float64, n),
		sigma:   make([]float64, n),
		outputs: make([]int32, len(c.Outputs)),
	}
	for _, id := range topo {
		g := c.Gate(id)
		if g.Fn == circuit.Input {
			continue
		}
		p := pos[id]
		for _, f := range g.Fanin {
			net.fanin = append(net.fanin, pos[f])
		}
		net.start[p+1] = int32(len(net.fanin))
		net.mean[p] = nominal.Delay[id]
		net.sigma[p] = vm.Sigma(d.Cell(id), net.mean[p])
	}
	for i, po := range c.Outputs {
		net.outputs[i] = pos[po]
	}
	return net
}

// trial draws one delay per non-input gate from rng in position order,
// propagates longest-path arrivals into arrival, and returns the latest
// primary-output arrival (0 for a design without outputs).
func (net *flatNet) trial(rng *randv2.Rand, arrival []float64) float64 {
	start, fanin := net.start[:len(arrival)+1], net.fanin
	mean, sigma := net.mean[:len(arrival)], net.sigma[:len(arrival)]
	for k := net.inputs; k < len(arrival); k++ {
		worst := 0.0
		for _, f := range fanin[start[k]:start[k+1]] {
			if a := arrival[f]; a > worst {
				worst = a
			}
		}
		arrival[k] = worst + variation.SampleFrom(rng, mean[k], sigma[k])
	}
	if len(net.outputs) == 0 {
		return 0
	}
	cd := math.Inf(-1)
	for _, po := range net.outputs {
		if arrival[po] > cd {
			cd = arrival[po]
		}
	}
	return cd
}

// FromSamples folds an externally assembled sample set (the
// concatenation of SampleRange shards, in trial order) into a Result,
// exactly the way AnalyzeOpts folds its own samples: sort, then
// accumulate moments over the sorted order so the float summation —
// and with it Mean and Sigma — is independent of how trials were
// sharded. Merging shards that cover [0, n) through this function is
// bit-identical to a single AnalyzeOpts run with Trials = n.
func FromSamples(samples []float64) (*Result, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("montecarlo: no samples to fold")
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	var sum, sumsq float64
	for _, cd := range sorted {
		sum += cd
		sumsq += cd * cd
	}
	n := float64(len(sorted))
	mean := sum / n
	varc := sumsq/n - mean*mean
	if varc < 0 {
		varc = 0
	}
	return &Result{Samples: sorted, Mean: mean, Sigma: math.Sqrt(varc)}, nil
}

// PDF converts the sample set into an n-point discrete PDF for plotting
// next to FULLSSTA output.
func (r *Result) PDF(points int) dpdf.PDF {
	var s dpdf.Scratch
	return s.FromSamples(r.Samples, points)
}
