package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/ssta"
	"repro/internal/synth"
)

// ScoreboardRow is one (circuit, backend) cell of the cross-optimizer
// scoreboard: every registered backend run from the same mean-delay-
// optimized starting point, scored on the same statistical cost metric.
type ScoreboardRow struct {
	Circuit   string `json:"circuit"`
	Optimizer string `json:"optimizer"`
	Gates     int    `json:"gates"`

	// CostBefore/CostAfter are mu + lambda*sigma of the starting point
	// and of the backend's final design, both measured by a from-scratch
	// FULLSSTA analysis so the metric is uniform across backends (the
	// mean-delay backend internally optimizes nominal delay only).
	CostBefore float64 `json:"cost_before"`
	CostAfter  float64 `json:"cost_after"`
	Mean       float64 `json:"mean_ps"`
	Sigma      float64 `json:"sigma_ps"`
	AreaBefore float64 `json:"area_before"`
	AreaAfter  float64 `json:"area_after"`

	Iterations int           `json:"iterations"`
	StoppedBy  string        `json:"stopped_by"`
	Evals      int64         `json:"evals"`
	NodeEvals  int64         `json:"node_evals"`
	Runtime    time.Duration `json:"runtime_ns"`
}

// Scoreboard runs each named backend on each circuit — always from the
// paper's "Original" (mean-delay-optimized) starting point — and
// returns one row per (circuit, backend). Backends must name registered
// core optimizers; pass core.Optimizers() for all of them.
func Scoreboard(names, backends []string, lambda float64, cfg Config) ([]ScoreboardRow, error) {
	var rows []ScoreboardRow
	for _, name := range names {
		d, vm, err := NewDesign(name)
		if err != nil {
			return nil, fmt.Errorf("scoreboard %s: %w", name, err)
		}
		if err := Original(d, vm, cfg); err != nil {
			return nil, fmt.Errorf("scoreboard %s: %w", name, err)
		}
		f0 := ssta.Analyze(d, vm, cfg.ssta())
		cost0 := f0.Cost(d, lambda)
		area0 := d.Area()
		for _, backend := range backends {
			o, ok := core.LookupOptimizer(backend)
			if !ok {
				return nil, fmt.Errorf("scoreboard: unknown optimizer %q (want one of %v)", backend, core.Optimizers())
			}
			dd := &synth.Design{Circuit: d.Circuit.Clone(), Lib: d.Lib}
			res, err := o.Run(dd, vm, core.Options{
				Lambda: lambda, MaxIters: cfg.MaxIters, PDFPoints: cfg.PDFPoints,
				Workers: cfg.Workers,
			})
			if err != nil {
				return nil, fmt.Errorf("scoreboard %s/%s: %w", name, backend, err)
			}
			f := ssta.Analyze(dd, vm, cfg.ssta())
			rows = append(rows, ScoreboardRow{
				Circuit: name, Optimizer: backend, Gates: dd.Circuit.NumLogicGates(),
				CostBefore: cost0, CostAfter: f.Cost(dd, lambda),
				Mean: f.Mean, Sigma: f.Sigma,
				AreaBefore: area0, AreaAfter: dd.Area(),
				Iterations: res.Iterations, StoppedBy: res.StoppedBy,
				Evals: res.Evals, NodeEvals: res.NodeEvals, Runtime: res.Runtime,
			})
		}
	}
	return rows, nil
}
