// Command repro regenerates the tables and figures of the paper's
// evaluation section:
//
//	repro table1 [-csv] [circuit ...]   Table 1 (all 13 circuits by default)
//	repro fig1   [-circuit name]        Figure 1: circuit delay PDFs
//	repro fig3                          Figure 3: WNSS trace walkthrough
//	repro fig4   [-circuit name]        Figure 4: lambda sweep frontier
//	repro erf                           Section 4.3 erf-approximation table
//	repro engines [circuit ...]         Engine accuracy/speed comparison
//	repro correlation [circuit ...]     Correlation-aware engine vs independence
//	repro all                           Everything above in sequence
//	repro scoreboard                    Cross-optimizer scoreboard -> BENCH_optimizers.json
//
// See DESIGN.md for the experiment index and EXPERIMENTS.md for a
// recorded reference run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/circuitlint"
	"repro/internal/cliutil"
	"repro/internal/corrssta"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/report"
	"repro/internal/ssta"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "table1":
		err = runTable1(args)
	case "fig1":
		err = runFig1(args)
	case "fig3":
		err = runFig3(args)
	case "fig4":
		err = runFig4(args)
	case "erf":
		err = runErf(args)
	case "engines":
		err = runEngines(args)
	case "correlation":
		err = runCorrelation(args)
	case "scoreboard":
		err = runScoreboard(args)
	case "all":
		for _, c := range []func([]string) error{runTable1, runFig1, runFig3, runFig4, runErf, runEngines, runCorrelation} {
			if err = c(nil); err != nil {
				break
			}
			fmt.Println()
		}
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: repro <table1|fig1|fig3|fig4|erf|engines|correlation|all|scoreboard> [flags]`)
}

// workersFlag registers the shared -workers knob on a subcommand's flag
// set (see internal/cliutil; the optimizer scores candidates
// concurrently only when the flag is explicitly >= 2 — deterministic,
// but a different move ordering than the serial default, DESIGN.md
// section 7).
func workersFlag(fs *flag.FlagSet) *int {
	return cliutil.WorkersFlag(fs)
}

// parseWorkers parses a subcommand's flags and validates the -workers
// value, rejecting negatives with a clear error.
func parseWorkers(fs *flag.FlagSet, workers *int, args []string) error {
	return cliutil.ParseWorkers(fs, workers, args)
}

// lintFlag registers the shared -lint knob on a subcommand's flag set
// (see internal/cliutil): the named benchmark designs are structurally
// linted before the experiment runs.
func lintFlag(fs *flag.FlagSet) *bool { return cliutil.LintFlag(fs) }

// incrementalFlag registers the shared -incremental knob (see
// internal/cliutil): the optimizers repair timing incrementally by
// default, with bit-identical results to a full recompute per pass.
func incrementalFlag(fs *flag.FlagSet) *bool { return cliutil.IncrementalFlag(fs) }

// lintDesigns generates and lints each named built-in benchmark when
// enabled: diagnostics (with gate names) go to stderr, error-severity
// findings abort the run.
func lintDesigns(enabled bool, names ...string) error {
	if !enabled {
		return nil
	}
	for _, name := range names {
		d, _, err := experiments.NewDesign(name)
		if err != nil {
			return err
		}
		diags := circuitlint.LintDesign(d)
		for _, dg := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s\n", name, dg)
		}
		if circuitlint.HasErrors(diags) {
			return fmt.Errorf("%s fails lint: %d error finding(s)", name, len(circuitlint.Errors(diags)))
		}
	}
	return nil
}

func runTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	csv := fs.Bool("csv", false, "emit CSV instead of a formatted table")
	workers := workersFlag(fs)
	incr := incrementalFlag(fs)
	lint := lintFlag(fs)
	if err := parseWorkers(fs, workers, args); err != nil {
		return err
	}
	names := fs.Args()
	if len(names) == 0 {
		names = gen.ISCASNames()
	}
	if err := lintDesigns(*lint, names...); err != nil {
		return err
	}
	rows, err := experiments.Table1(names, experiments.Config{Workers: *workers, FullRecompute: !*incr})
	if err != nil {
		return err
	}
	tab := &report.Table{
		Title: "Table 1: statistical gate sizing on the benchmark circuits (paper Table 1)",
		Headers: []string{"circuit", "gates", "paper-gates", "orig σ/μ",
			"Δμ%(λ3)", "Δσ%(λ3)", "σ/μ(λ3)", "ΔA%(λ3)", "t(λ3)",
			"Δμ%(λ9)", "Δσ%(λ9)", "σ/μ(λ9)", "ΔA%(λ9)", "t(λ9)"},
	}
	for _, r := range rows {
		tab.AddRow(r.Name, r.Gates, r.PaperGates, fmt.Sprintf("%.3f", r.OrigRatio),
			pct(r.DMeanPct[0]), pct(r.DSigmaPct[0]), fmt.Sprintf("%.3f", r.NewRatio[0]), pct(r.DAreaPct[0]), r.Runtime[0].Round(1e6),
			pct(r.DMeanPct[1]), pct(r.DSigmaPct[1]), fmt.Sprintf("%.3f", r.NewRatio[1]), pct(r.DAreaPct[1]), r.Runtime[1].Round(1e6))
	}
	if *csv {
		return tab.WriteCSV(os.Stdout)
	}
	return tab.Write(os.Stdout)
}

func pct(v float64) string { return fmt.Sprintf("%+.0f%%", v) }

func runFig1(args []string) error {
	fs := flag.NewFlagSet("fig1", flag.ExitOnError)
	circuit := fs.String("circuit", "c880", "benchmark to plot")
	workers := workersFlag(fs)
	incr := incrementalFlag(fs)
	lint := lintFlag(fs)
	if err := parseWorkers(fs, workers, args); err != nil {
		return err
	}
	if err := lintDesigns(*lint, *circuit); err != nil {
		return err
	}
	res, err := experiments.Fig1(*circuit, experiments.Config{Workers: *workers, FullRecompute: !*incr})
	if err != nil {
		return err
	}
	series := []report.Series{
		seriesOf("original (mean-optimized)", res.Original.Support),
		seriesOf("optimization 1 (lambda=3)", res.Opt1.Support),
		seriesOf("optimization 2 (lambda=9)", res.Opt2.Support),
	}
	if err := report.Plot(os.Stdout, "Figure 1: circuit output delay PDF — "+res.Name, series, 72, 18); err != nil {
		return err
	}
	fmt.Printf("\nperiod marker T = %.0f ps: yield original %.3f, opt1 %.3f, opt2 %.3f\n",
		res.T, res.YieldOriginal, res.YieldOpt1, res.YieldOpt2)
	fmt.Printf("sigma: original %.1f ps, opt1 %.1f ps, opt2 %.1f ps\n",
		res.Original.Sigma(), res.Opt1.Sigma(), res.Opt2.Sigma())
	return nil
}

func seriesOf(label string, support func() ([]float64, []float64)) report.Series {
	xs, ps := support()
	return report.Series{Label: label, X: xs, Y: ps}
}

func runFig3(args []string) error {
	res := experiments.Fig3(0)
	fmt.Println("Figure 3: tracing the worst negative statistical slack (WNSS) path")
	fmt.Println("arrival moments: A(320,27) B(310,45) C(357,32) D(190,41) E(392,35)")
	fmt.Println("topology: X <- {E, D};  E <- {A, B, C}")
	for _, s := range res.Steps {
		how := "variance-sensitivity comparison"
		if s.ByDominance {
			how = "dominance shortcut (eq. 5/6)"
		}
		fmt.Printf("  at %s: fanins %s -> chose %s via %s\n",
			s.Gate, strings.Join(s.FaninNames, ","), s.Chosen, how)
	}
	fmt.Printf("WNSS path (output first): %s\n", strings.Join(res.Path, " -> "))
	return nil
}

func runFig4(args []string) error {
	fs := flag.NewFlagSet("fig4", flag.ExitOnError)
	circuit := fs.String("circuit", "c432", "benchmark to sweep")
	workers := workersFlag(fs)
	incr := incrementalFlag(fs)
	lint := lintFlag(fs)
	if err := parseWorkers(fs, workers, args); err != nil {
		return err
	}
	if err := lintDesigns(*lint, *circuit); err != nil {
		return err
	}
	pts, err := experiments.Fig4(*circuit, nil, experiments.Config{Workers: *workers, FullRecompute: !*incr})
	if err != nil {
		return err
	}
	var s report.Series
	s.Label = "lambda sweep"
	tab := &report.Table{
		Title:   "Figure 4: normalized mean vs sigma for " + *circuit,
		Headers: []string{"lambda", "mean (norm)", "sigma (norm)"},
	}
	for _, p := range pts {
		name := fmt.Sprintf("%g", p.Lambda)
		if p.Lambda < 0 {
			name = "original"
		}
		tab.AddRow(name, fmt.Sprintf("%.4f", p.MeanNorm), fmt.Sprintf("%.4f", p.SigmaNorm))
		s.X = append(s.X, p.MeanNorm)
		s.Y = append(s.Y, p.SigmaNorm)
	}
	if err := tab.Write(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return report.Plot(os.Stdout, "normalized mean (x) vs sigma (y)", []report.Series{s}, 60, 14)
}

func runErf(args []string) error {
	rows := experiments.ErfAccuracy()
	tab := &report.Table{
		Title:   "Section 4.3: quadratic erf approximation accuracy (claim: two decimal places)",
		Headers: []string{"range", "max error", "mean error"},
	}
	for _, r := range rows {
		tab.AddRow(fmt.Sprintf("[%.1f, %.1f]", r.Lo, r.Hi),
			fmt.Sprintf("%.5f", r.MaxErr), fmt.Sprintf("%.5f", r.MeanErr))
	}
	return tab.Write(os.Stdout)
}

func runCorrelation(args []string) error {
	fs := flag.NewFlagSet("correlation", flag.ExitOnError)
	lint := lintFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := fs.Args()
	if len(names) == 0 {
		names = []string{"c499", "c1908"}
	}
	if err := lintDesigns(*lint, names...); err != nil {
		return err
	}
	tab := &report.Table{
		Title:   "Correlation-aware engine (the paper's PCA upgrade path) vs independence, correlated MC as truth",
		Headers: []string{"circuit", "share", "MC σ", "canonical σ", "err%", "independent σ", "err%"},
	}
	for _, name := range names {
		d, vm, err := experiments.NewDesign(name)
		if err != nil {
			return err
		}
		for _, share := range []float64{0.3, 0.6} {
			opts := corrssta.Options{Share: share}
			mc, err := corrssta.MonteCarlo(d, vm, opts, 20000, 7)
			if err != nil {
				return err
			}
			canon := corrssta.Analyze(d, vm, opts)
			indep := ssta.Analyze(d, vm, ssta.Options{})
			tab.AddRow(name, fmt.Sprintf("%.1f", share),
				fmt.Sprintf("%.1f", mc.Sigma),
				fmt.Sprintf("%.1f", canon.Sigma),
				fmt.Sprintf("%.1f", 100*abs(canon.Sigma-mc.Sigma)/mc.Sigma),
				fmt.Sprintf("%.1f", indep.Sigma),
				fmt.Sprintf("%.1f", 100*abs(indep.Sigma-mc.Sigma)/mc.Sigma))
		}
	}
	return tab.Write(os.Stdout)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func runEngines(args []string) error {
	fs := flag.NewFlagSet("engines", flag.ExitOnError)
	workers := workersFlag(fs)
	incr := incrementalFlag(fs)
	lint := lintFlag(fs)
	if err := parseWorkers(fs, workers, args); err != nil {
		return err
	}
	names := fs.Args()
	if len(names) == 0 {
		names = []string{"alu2", "c432", "c880", "c1908"}
	}
	if err := lintDesigns(*lint, names...); err != nil {
		return err
	}
	rows, err := experiments.Engines(names, 20000, experiments.Config{Workers: *workers, FullRecompute: !*incr})
	if err != nil {
		return err
	}
	tab := &report.Table{
		Title: "Engine comparison: Monte Carlo (golden) vs FULLSSTA vs global FASSTA",
		Headers: []string{"circuit", "gates", "MC μ", "MC σ",
			"FULL μerr%", "FULL σerr%", "FAST μerr%", "FAST σerr%",
			"dominance%", "t(MC)", "t(FULL)", "t(FAST)"},
	}
	for _, r := range rows {
		tab.AddRow(r.Name, r.Gates,
			fmt.Sprintf("%.0f", r.MCMean), fmt.Sprintf("%.1f", r.MCSigma),
			fmt.Sprintf("%.1f", r.FullMeanErrPct), fmt.Sprintf("%.1f", r.FullSigmaErrPct),
			fmt.Sprintf("%.1f", r.FastMeanErrPct), fmt.Sprintf("%.1f", r.FastSigmaErrPct),
			fmt.Sprintf("%.0f", r.DominancePct),
			r.MCTime.Round(1e6), r.FullTime.Round(1e6), r.FastTime.Round(1e3))
	}
	return tab.Write(os.Stdout)
}

// scoreboardReport is the schema of BENCH_optimizers.json: the
// cross-optimizer scoreboard (see internal/experiments.Scoreboard).
// Workers is 1 so the runtimes compare algorithms, not host parallelism.
type scoreboardReport struct {
	HostCPUs   int                         `json:"host_cpus"`
	GOMAXPROCS int                         `json:"gomaxprocs"`
	Lambda     float64                     `json:"lambda"`
	Rows       []experiments.ScoreboardRow `json:"rows"`
}

// runScoreboard writes BENCH_optimizers.json: the mean-delay,
// statistical-greedy and sensitivity backends from the same
// mean-delay-optimized start on alu1, alu2 and c432 at lambda 9, each
// to its own convergence.
func runScoreboard(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("scoreboard takes no arguments")
	}
	const lambda, out = 9, "BENCH_optimizers.json"
	rows, err := experiments.Scoreboard([]string{"alu1", "alu2", "c432"},
		[]string{"meandelay", "statgreedy", "sensitivity"}, lambda,
		experiments.Config{Workers: 1})
	if err != nil {
		return err
	}
	rep := scoreboardReport{
		HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Lambda: lambda, Rows: rows,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%-6s %-12s cost %8.1f -> %8.1f  area %6.0f -> %6.0f  %3d iters (%s)  %8d evals  %v\n",
			r.Circuit, r.Optimizer, r.CostBefore, r.CostAfter,
			r.AreaBefore, r.AreaAfter, r.Iterations, r.StoppedBy, r.Evals, r.Runtime.Round(time.Millisecond))
	}
	fmt.Printf("host: %d CPUs (GOMAXPROCS %d), lambda=%g -> %s\n", rep.HostCPUs, rep.GOMAXPROCS, rep.Lambda, out)
	return nil
}
