// Package oprun executes one sstad job operation against the engines.
// It is the single translation layer from the wire request vocabulary
// (client.JobRequest) to the library entry points, shared by every node
// role: the single-node server runs ops through it directly, cluster
// workers run leased ops (and Monte-Carlo trial shards) through it, and
// the coordinator uses its merge helpers to fold shard results back
// into the exact payload a single-node run would have produced.
package oprun

import (
	"context"
	"fmt"

	"repro"
	"repro/client"
)

// Run executes req against d and returns the op-specific wire payload.
// Cached designs are shared and read-only; mutating operations clone
// first. The optimize op gets the checkpoint callback (nil = no
// checkpointing) and, after a crash recovery or lease migration, the
// resume state — the resumed run retraces the uninterrupted one
// bit-for-bit (see internal/core).
func Run(ctx context.Context, req client.JobRequest, d *repro.Design, resume *repro.OptCheckpoint, checkpoint func(repro.OptCheckpoint)) (any, error) {
	opts := repro.RunOptions{
		Workers:   req.Workers,
		PDFPoints: req.PDFPoints,
		MaxIters:  req.MaxIters,
		Ctx:       ctx,
	}
	switch req.Op {
	case client.OpAnalyze:
		a, err := d.AnalyzeCtx(ctx, opts)
		if err != nil {
			return nil, err
		}
		return AnalyzePayload(a, req)
	case client.OpMonteCarlo:
		a, err := d.MonteCarloOpts(req.Samples, req.Seed, opts)
		if err != nil {
			return nil, err
		}
		return AnalyzePayload(a, req)
	case client.OpOptimize:
		dd := d.Clone()
		// Backend selection: req.Optimizer is validated at admission (the
		// server rejects unknown names with 400), so Optimize's own
		// validation only fires for direct library misuse.
		opts.Optimizer = req.Optimizer
		opts.Seed = req.Seed
		opts.SlackFrac = req.SlackFrac
		opts.Checkpoint = checkpoint
		opts.Resume = resume
		r, err := dd.Optimize(req.Lambda, opts)
		if err != nil {
			return nil, err
		}
		p := OptimizePayload(r)
		// The sizing vector is the canonical equality oracle: a resumed
		// run matches its uninterrupted counterpart iff these match.
		p.Sizes = dd.Sizes()
		return p, nil
	case client.OpWNSSPath:
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return client.PathResult{Gates: d.WNSSPath(req.Lambda)}, nil
	case client.OpWhatIf:
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return WhatIfCandidates(d, req.Candidates, opts)
	}
	return nil, fmt.Errorf("unreachable op %q", req.Op)
}

// WhatIfCandidates scores a candidate list through the batched what-if
// engine and returns the wire payload. Candidates are independent
// what-ifs against the design's CURRENT sizing, so any partition of the
// list — scored on any mix of nodes — concatenates back, in order, to
// exactly the single-node result (the cluster layer's shard-merge
// guarantee for whatif jobs).
func WhatIfCandidates(d *repro.Design, cands [][]client.Edit, opts repro.RunOptions) (client.WhatIfResult, error) {
	edits := make([][]repro.WhatIfEdit, len(cands))
	for ci, cand := range cands {
		edits[ci] = make([]repro.WhatIfEdit, len(cand))
		for i, e := range cand {
			edits[ci][i] = repro.WhatIfEdit{Gate: e.Gate, Size: e.Size}
		}
	}
	reps, err := d.WhatIfBatch(edits, opts)
	if err != nil {
		return client.WhatIfResult{}, err
	}
	out := client.WhatIfResult{Reports: make([]client.WhatIfReport, len(reps))}
	for i, r := range reps {
		out.Reports[i] = client.WhatIfReport{
			MeanBefore: r.MeanBefore, SigmaBefore: r.SigmaBefore,
			MeanAfter: r.MeanAfter, SigmaAfter: r.SigmaAfter,
			NodesRepaired: r.NodesRepaired, Gates: r.Gates,
		}
	}
	return out, nil
}

// MonteCarloShard draws the trial range [lo, hi) of the request's
// Monte-Carlo run, in trial order — the cluster work unit. Concatenating
// disjoint shards covering [0, Samples) and folding them through
// MergeMonteCarlo is bit-identical to a single-node montecarlo job.
func MonteCarloShard(ctx context.Context, req client.JobRequest, d *repro.Design, lo, hi int) ([]float64, error) {
	return d.MonteCarloShard(req.Seed, lo, hi, repro.RunOptions{
		Workers: req.Workers, Ctx: ctx,
	})
}

// MergeMonteCarlo folds concatenated shard samples (trial order) into
// the montecarlo job payload a single-node run would have produced.
func MergeMonteCarlo(req client.JobRequest, d *repro.Design, samples []float64) (client.AnalyzeResult, error) {
	a, err := d.MonteCarloFromSamples(samples, repro.RunOptions{
		Workers: req.Workers, PDFPoints: req.PDFPoints,
	})
	if err != nil {
		return client.AnalyzeResult{}, err
	}
	return AnalyzePayload(a, req)
}

// AnalyzePayload folds an Analysis plus the request's yield queries into
// the wire result.
func AnalyzePayload(a *repro.Analysis, req client.JobRequest) (client.AnalyzeResult, error) {
	res := client.AnalyzeResult{
		Mean:         a.Mean,
		Sigma:        a.Sigma,
		NominalDelay: a.NominalDelay,
		PDFX:         a.PDFX,
		PDFY:         a.PDFY,
	}
	for _, T := range req.YieldPeriods {
		res.Yields = append(res.Yields, client.YieldPoint{Period: T, Yield: a.Yield(T)})
	}
	for _, y := range req.TargetYields {
		T, err := a.PeriodForYield(y)
		if err != nil {
			return client.AnalyzeResult{}, fmt.Errorf("period for yield %g: %w", y, err)
		}
		res.Periods = append(res.Periods, client.PeriodPoint{TargetYield: y, Period: T})
	}
	return res, nil
}

// OptimizePayload converts an optimizer result to the wire form (the
// caller fills Sizes from the design it cloned).
func OptimizePayload(r repro.OptResult) client.OptimizeResult {
	return client.OptimizeResult{
		MeanBefore: r.MeanBefore, MeanAfter: r.MeanAfter,
		SigmaBefore: r.SigmaBefore, SigmaAfter: r.SigmaAfter,
		AreaBefore: r.AreaBefore, AreaAfter: r.AreaAfter,
		Iterations:      r.Iterations,
		StoppedBy:       r.StoppedBy,
		RuntimeSec:      r.Runtime.Seconds(),
		AnalysisTimeSec: r.AnalysisTime.Seconds(),
		Evals:           r.Evals,
		NodeEvals:       r.NodeEvals,
	}
}
