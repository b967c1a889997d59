// Package experiments regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md section 4 for the index). Each
// experiment is a plain function returning structured rows so the CLI,
// the benches and the tests all share one implementation.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/dpdf"
	"repro/internal/gen"
	"repro/internal/ssta"
	"repro/internal/synth"
	"repro/internal/variation"
)

// Config holds the shared experimental setup. Defaults mirror the paper:
// lambda in {3, 9}, 10-15 PDF points, depth-2 subcircuits.
type Config struct {
	PDFPoints int // 0 = default 12
	MaxIters  int // 0 = optimizer default
	// Workers bounds engine concurrency (0 = all CPUs, 1 = serial). Every
	// engine and optimizer is bit-identical for any value.
	Workers int
}

func (c Config) ssta() ssta.Options {
	return ssta.Options{Points: c.PDFPoints, Workers: c.Workers}
}

// NewDesign generates, maps and returns the named benchmark with the
// default library and variation model.
func NewDesign(name string) (*synth.Design, *variation.Model, error) {
	c, err := gen.ISCASLike(name)
	if err != nil {
		return nil, nil, err
	}
	lib := cells.Default90nm()
	d, err := synth.Map(c, lib)
	if err != nil {
		return nil, nil, err
	}
	return d, variation.Default(lib), nil
}

// Original turns a freshly mapped design into the paper's starting point
// by running the deterministic mean-delay optimizer.
func Original(d *synth.Design, vm *variation.Model, cfg Config) error {
	_, err := core.MeanDelayGreedy(d, vm, core.Options{
		MaxIters: cfg.MaxIters, PDFPoints: cfg.PDFPoints, Workers: cfg.Workers,
	})
	return err
}

// Table1Row is one line of the paper's Table 1.
type Table1Row struct {
	Name       string
	Gates      int     // mapped logic gates (ours)
	PaperGates int     // the paper's reported count
	OrigRatio  float64 // sigma/mu of the mean-optimized design

	// Per lambda in {3, 9}:
	DMeanPct  [2]float64 // mean increase, %
	DSigmaPct [2]float64 // sigma change, % (negative = reduction)
	NewRatio  [2]float64 // sigma/mu after optimization
	DAreaPct  [2]float64 // area increase, %
	Runtime   [2]time.Duration
}

// Lambdas are the sigma weights Table 1 evaluates.
var Lambdas = [2]float64{3, 9}

// Table1 reproduces the paper's Table 1 for the named circuits (pass
// gen.ISCASNames() for the full benchmark set).
func Table1(names []string, cfg Config) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, len(names))
	for _, name := range names {
		row, err := Table1For(name, cfg)
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", name, err)
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

// Table1For runs the Table 1 protocol for one circuit: build, map,
// mean-delay-optimize (the Original column), then run StatisticalGreedy
// at lambda = 3 and 9 from that starting point.
func Table1For(name string, cfg Config) (*Table1Row, error) {
	d, vm, err := NewDesign(name)
	if err != nil {
		return nil, err
	}
	if err := Original(d, vm, cfg); err != nil {
		return nil, err
	}
	f0 := ssta.Analyze(d, vm, cfg.ssta())
	area0 := d.Area()
	row := &Table1Row{
		Name:       name,
		Gates:      d.Circuit.NumLogicGates(),
		PaperGates: gen.PaperGateCounts[name],
		OrigRatio:  f0.Sigma / f0.Mean,
	}
	// Continuation over lambda: the lambda=9 run warm-starts from the
	// lambda=3 result, the standard homotopy for a greedy non-convex
	// optimizer (it also mirrors how a designer would ratchet the
	// variance weight up). Each run still reports its own wall time.
	prev := d
	for i, lambda := range Lambdas {
		dd := &synth.Design{Circuit: prev.Circuit.Clone(), Lib: d.Lib}
		opts := core.Options{
			Lambda: lambda, MaxIters: cfg.MaxIters, PDFPoints: cfg.PDFPoints,
			Workers: cfg.Workers,
		}
		start := time.Now()
		if _, err := core.StatisticalGreedy(dd, vm, opts); err != nil {
			return nil, err
		}
		// Constrained-mode cleanup (section 2.1): recover area that does
		// not pay for itself, without giving back the achieved cost.
		if _, err := core.RecoverArea(dd, vm, opts, 0.003); err != nil {
			return nil, err
		}
		f := ssta.Analyze(dd, vm, cfg.ssta())
		row.DMeanPct[i] = 100 * (f.Mean - f0.Mean) / f0.Mean
		row.DSigmaPct[i] = 100 * (f.Sigma - f0.Sigma) / f0.Sigma
		row.NewRatio[i] = f.Sigma / f.Mean
		row.DAreaPct[i] = 100 * (dd.Area() - area0) / area0
		row.Runtime[i] = time.Since(start)
		prev = dd
	}
	return row, nil
}

// Fig1Result holds the three PDFs of Figure 1: the mean-optimized
// original and two variance optimizations, plus yields at a period T
// chosen between the original mean and its right tail (where the paper
// places its period marker).
type Fig1Result struct {
	Name                 string
	Original, Opt1, Opt2 dpdf.PDF
	T                    float64
	YieldOriginal        float64
	YieldOpt1            float64
	YieldOpt2            float64
}

// Fig1 reproduces Figure 1 on the named circuit (the paper does not name
// one; c880 is used by default in the CLI).
func Fig1(name string, cfg Config) (*Fig1Result, error) {
	d, vm, err := NewDesign(name)
	if err != nil {
		return nil, err
	}
	if err := Original(d, vm, cfg); err != nil {
		return nil, err
	}
	f0 := ssta.Analyze(d, vm, cfg.ssta())
	res := &Fig1Result{Name: name, Original: f0.CircuitPDF}

	run := func(lambda float64) (dpdf.PDF, error) {
		dd := &synth.Design{Circuit: d.Circuit.Clone(), Lib: d.Lib}
		if _, err := core.StatisticalGreedy(dd, vm, core.Options{
			Lambda: lambda, MaxIters: cfg.MaxIters, PDFPoints: cfg.PDFPoints,
			Workers: cfg.Workers,
		}); err != nil {
			return dpdf.PDF{}, err
		}
		return ssta.Analyze(dd, vm, cfg.ssta()).CircuitPDF, nil
	}
	if res.Opt1, err = run(3); err != nil {
		return nil, err
	}
	if res.Opt2, err = run(9); err != nil {
		return nil, err
	}
	// Period marker: one original-sigma past the original mean.
	res.T = f0.Mean + f0.Sigma
	res.YieldOriginal = res.Original.CDF(res.T)
	res.YieldOpt1 = res.Opt1.CDF(res.T)
	res.YieldOpt2 = res.Opt2.CDF(res.T)
	return res, nil
}

// Fig4Point is one lambda point of Figure 4's normalized mean/sigma
// trade-off plot for c432.
type Fig4Point struct {
	Lambda    float64
	MeanNorm  float64 // mean / original mean
	SigmaNorm float64 // sigma / original mean
}

// Fig4 sweeps lambda over {0, 3, 6, 9} on the c432-like circuit and
// reports mean and sigma normalized to the original design's mean,
// matching the axes of the paper's Figure 4 (x in ~0.99-1.05, y in
// 0-0.1).
func Fig4(name string, lambdas []float64, cfg Config) ([]Fig4Point, error) {
	if name == "" {
		name = "c432"
	}
	if len(lambdas) == 0 {
		lambdas = []float64{0, 3, 6, 9}
	}
	d, vm, err := NewDesign(name)
	if err != nil {
		return nil, err
	}
	if err := Original(d, vm, cfg); err != nil {
		return nil, err
	}
	f0 := ssta.Analyze(d, vm, cfg.ssta())
	points := make([]Fig4Point, 0, len(lambdas)+1)
	// The paper's plot includes the original design as the reference
	// point at normalized mean 1.0; Lambda = -1 marks it.
	points = append(points, Fig4Point{Lambda: -1, MeanNorm: 1, SigmaNorm: f0.Sigma / f0.Mean})
	for _, lambda := range lambdas {
		dd := &synth.Design{Circuit: d.Circuit.Clone(), Lib: d.Lib}
		r, err := core.StatisticalGreedy(dd, vm, core.Options{
			Lambda: lambda, MaxIters: cfg.MaxIters, PDFPoints: cfg.PDFPoints,
			Workers: cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		points = append(points, Fig4Point{
			Lambda:    lambda,
			MeanNorm:  r.Final.Mean / f0.Mean,
			SigmaNorm: r.Final.Sigma / f0.Mean,
		})
	}
	return points, nil
}

// Fig3Step describes one backward step of the Figure 3 WNSS trace demo.
type Fig3Step struct {
	Gate        string
	FaninNames  []string
	Chosen      string
	ByDominance bool
}
