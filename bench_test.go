package repro

// The benchmark harness regenerates every table and figure of the paper
// (see DESIGN.md section 4 for the experiment index) plus the ablation
// studies of section 5. Quality metrics (sigma reduction, engine error)
// are attached to the timing results via b.ReportMetric, so one
// `go test -bench=. -benchmem` run reproduces both the numbers and the
// costs. EXPERIMENTS.md records a reference run.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/corrssta"
	"repro/internal/experiments"
	"repro/internal/fassta"
	"repro/internal/montecarlo"
	"repro/internal/normal"
	"repro/internal/ssta"
	"repro/internal/wnss"
)

// --- Table 1: one bench per circuit ---------------------------------------

func benchTable1(b *testing.B, name string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		row, err := experiments.Table1For(name, experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(row.OrigRatio, "orig-sigma/mu")
		b.ReportMetric(row.DSigmaPct[0], "dsigma3-%")
		b.ReportMetric(row.DSigmaPct[1], "dsigma9-%")
		b.ReportMetric(row.DMeanPct[1], "dmean9-%")
		b.ReportMetric(row.DAreaPct[1], "darea9-%")
	}
}

func BenchmarkTable1Alu1(b *testing.B)  { benchTable1(b, "alu1") }
func BenchmarkTable1Alu2(b *testing.B)  { benchTable1(b, "alu2") }
func BenchmarkTable1Alu3(b *testing.B)  { benchTable1(b, "alu3") }
func BenchmarkTable1C432(b *testing.B)  { benchTable1(b, "c432") }
func BenchmarkTable1C499(b *testing.B)  { benchTable1(b, "c499") }
func BenchmarkTable1C880(b *testing.B)  { benchTable1(b, "c880") }
func BenchmarkTable1C1355(b *testing.B) { benchTable1(b, "c1355") }
func BenchmarkTable1C1908(b *testing.B) { benchTable1(b, "c1908") }
func BenchmarkTable1C2670(b *testing.B) { benchTable1(b, "c2670") }
func BenchmarkTable1C3540(b *testing.B) { benchTable1(b, "c3540") }
func BenchmarkTable1C5315(b *testing.B) { benchTable1(b, "c5315") }
func BenchmarkTable1C6288(b *testing.B) { benchTable1(b, "c6288") }
func BenchmarkTable1C7552(b *testing.B) { benchTable1(b, "c7552") }

// --- Figures ---------------------------------------------------------------

func BenchmarkFig1CircuitDelayPDFs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1("c880", experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Original.Sigma(), "sigma-orig-ps")
		b.ReportMetric(res.Opt2.Sigma(), "sigma-opt2-ps")
		b.ReportMetric(res.YieldOpt2-res.YieldOriginal, "dyield-at-T")
	}
}

func BenchmarkFig3WNSSTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig3(0)
		if len(res.Path) != 3 {
			b.Fatalf("unexpected path %v", res.Path)
		}
	}
}

func BenchmarkFig4LambdaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig4("c432", nil, experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].SigmaNorm, "sigma-orig-norm")
		b.ReportMetric(pts[len(pts)-1].SigmaNorm, "sigma-l9-norm")
	}
}

// --- Engine accuracy and speed (sections 4.2/4.3) ---------------------------

func BenchmarkEnginesComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Engines([]string{"c432"}, 20000, experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0]
		b.ReportMetric(r.FullSigmaErrPct, "full-sigma-err-%")
		b.ReportMetric(r.FastSigmaErrPct, "fast-sigma-err-%")
		b.ReportMetric(float64(r.MCTime)/float64(r.FastTime), "fast-speedup-vs-mc")
		b.ReportMetric(r.DominancePct, "dominance-%")
	}
}

func BenchmarkFULLSSTASmall(b *testing.B) { benchFULLSSTA(b, "c432") }
func BenchmarkFULLSSTALarge(b *testing.B) { benchFULLSSTA(b, "c6288") }

func benchFULLSSTA(b *testing.B, name string) {
	d, vm, err := experiments.NewDesign(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ssta.Analyze(d, vm, ssta.Options{})
	}
}

// --- Parallel engines (worker-count scaling of FULLSSTA and Monte Carlo) ---

func BenchmarkFULLSSTAParallel1(b *testing.B) { benchFULLSSTAWorkers(b, 1) }
func BenchmarkFULLSSTAParallel4(b *testing.B) { benchFULLSSTAWorkers(b, 4) }
func BenchmarkFULLSSTAParallel8(b *testing.B) { benchFULLSSTAWorkers(b, 8) }

func benchFULLSSTAWorkers(b *testing.B, workers int) {
	d, vm, err := experiments.NewDesign("c6288")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ssta.Analyze(d, vm, ssta.Options{Workers: workers})
	}
}

func BenchmarkMonteCarloParallel(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchMonteCarloWorkers(b, workers)
		})
	}
}

func benchMonteCarloWorkers(b *testing.B, workers int) {
	d, vm, err := experiments.NewDesign("c432")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := montecarlo.AnalyzeOpts(d, vm, montecarlo.Options{
			Trials: 10000, Seed: int64(i), Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFASSTAGlobalLarge(b *testing.B) {
	d, vm, err := experiments.NewDesign("c6288")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fassta.AnalyzeGlobal(d, vm, true)
	}
}

func BenchmarkMonteCarlo10kC432(b *testing.B) {
	d, vm, err := experiments.NewDesign("c432")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := montecarlo.Analyze(d, vm, 10000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarloOpts is the public Monte-Carlo door as the signoff
// path calls it: 200 trials with no yield query, so the FULLSSTA pass
// behind yields never runs.
func BenchmarkMonteCarloOpts(b *testing.B) {
	d, err := Generate("c7552")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.MonteCarloOpts(200, int64(i), RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWNSSTraceC7552(b *testing.B) {
	d, vm, err := experiments.NewDesign("c7552")
	if err != nil {
		b.Fatal(err)
	}
	full := ssta.Analyze(d, vm, ssta.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := wnss.Trace(d, full, vm, 3); len(p) == 0 {
			b.Fatal("empty path")
		}
	}
}

func BenchmarkSubcircuitCost(b *testing.B) {
	d, vm, err := experiments.NewDesign("c2670")
	if err != nil {
		b.Fatal(err)
	}
	full := ssta.Analyze(d, vm, ssta.Options{})
	path := wnss.Trace(d, full, vm, 3)
	s := fassta.Extract(d, full, vm, path[len(path)/2], 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Cost(i%8, 3)
	}
}

func BenchmarkCorrSSTA(b *testing.B) {
	d, vm, err := experiments.NewDesign("c1908")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sigma float64
	for i := 0; i < b.N; i++ {
		sigma = corrssta.Analyze(d, vm, corrssta.Options{Share: 0.5}).Sigma
	}
	b.ReportMetric(sigma, "sigma-ps")
}

// --- Micro: the max operator and erf approximation --------------------------

func randomMomentPairs(n int) [][2]normal.Moments {
	rng := rand.New(rand.NewSource(7))
	ms := make([][2]normal.Moments, n)
	for i := range ms {
		ms[i] = [2]normal.Moments{
			{Mean: rng.Float64() * 500, Var: 1 + rng.Float64()*900},
			{Mean: rng.Float64() * 500, Var: 1 + rng.Float64()*900},
		}
	}
	return ms
}

func BenchmarkMaxApprox(b *testing.B) {
	pairs := randomMomentPairs(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		normal.MaxApprox(p[0], p[1])
	}
}

func BenchmarkMaxExact(b *testing.B) {
	pairs := randomMomentPairs(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		normal.MaxExact(p[0], p[1])
	}
}

func BenchmarkPhiApprox(b *testing.B) {
	for i := 0; i < b.N; i++ {
		normal.PhiApprox(float64(i%700)/100 - 3.5)
	}
}

func BenchmarkPhiExact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		normal.Phi(float64(i%700)/100 - 3.5)
	}
}

// --- Ablations (DESIGN.md section 5) ----------------------------------------

// AblationDominance: the paper's fast max (dominance shortcut + quadratic
// erf) vs exact Clark everywhere, on a whole-circuit moments pass.
func BenchmarkAblationDominanceApprox(b *testing.B) { benchGlobalMoments(b, true) }
func BenchmarkAblationDominanceExact(b *testing.B)  { benchGlobalMoments(b, false) }

func benchGlobalMoments(b *testing.B, approx bool) {
	d, vm, err := experiments.NewDesign("c5315")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sigma float64
	for i := 0; i < b.N; i++ {
		sigma = fassta.AnalyzeGlobal(d, vm, approx).Sigma
	}
	b.ReportMetric(sigma, "sigma-ps")
}

// AblationPDFPoints: FULLSSTA accuracy/cost vs sampling rate (the paper
// settles on 10-15 points).
func BenchmarkAblationPDFPoints5(b *testing.B)  { benchPDFPoints(b, 5) }
func BenchmarkAblationPDFPoints12(b *testing.B) { benchPDFPoints(b, 12) }
func BenchmarkAblationPDFPoints25(b *testing.B) { benchPDFPoints(b, 25) }

func benchPDFPoints(b *testing.B, pts int) {
	d, vm, err := experiments.NewDesign("c1908")
	if err != nil {
		b.Fatal(err)
	}
	mc, err := montecarlo.Analyze(d, vm, 30000, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var r *ssta.Result
	for i := 0; i < b.N; i++ {
		r = ssta.Analyze(d, vm, ssta.Options{Points: pts})
	}
	b.StopTimer()
	b.ReportMetric(100*absf(r.Sigma-mc.Sigma)/mc.Sigma, "sigma-err-%")
}

// AblationSubcktDepth: optimizer quality/cost vs extraction radius (the
// paper uses 2).
func BenchmarkAblationSubcktDepth1(b *testing.B) { benchDepth(b, 1) }
func BenchmarkAblationSubcktDepth2(b *testing.B) { benchDepth(b, 2) }
func BenchmarkAblationSubcktDepth3(b *testing.B) { benchDepth(b, 3) }

func benchDepth(b *testing.B, depth int) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, vm, err := experiments.NewDesign("c432")
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.Original(d, vm, experiments.Config{}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		r, err := core.StatisticalGreedy(d, vm, core.Options{Lambda: 9, SubcktDepth: depth})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(r.Final.Sigma-r.Initial.Sigma)/r.Initial.Sigma, "dsigma-%")
		b.ReportMetric(100*(r.Final.Cost-r.Initial.Cost)/r.Initial.Cost, "dcost-%")
	}
}

// AblationInnerEngine: the fast approximate inner max vs exact Clark in
// the subcircuit evaluation.
func BenchmarkAblationInnerEngineApprox(b *testing.B) { benchInner(b, false) }
func BenchmarkAblationInnerEngineExact(b *testing.B)  { benchInner(b, true) }

func benchInner(b *testing.B, exact bool) {
	d, vm, err := experiments.NewDesign("c880")
	if err != nil {
		b.Fatal(err)
	}
	full := ssta.Analyze(d, vm, ssta.Options{})
	path := wnss.Trace(d, full, vm, 3)
	subs := make([]*fassta.Subcircuit, len(path))
	for i, g := range path {
		subs[i] = fassta.Extract(d, full, vm, g, 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := subs[i%len(subs)]
		if exact {
			s.CostExact(i%8, 3)
		} else {
			s.Cost(i%8, 3)
		}
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
