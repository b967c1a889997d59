// Command ssta analyzes the statistical timing of a circuit with all
// three engines — deterministic STA, FULLSSTA (discrete PDFs) and Monte
// Carlo — and prints moments, yield points and the WNSS path.
//
//	ssta -gen c880
//	ssta -bench netlist.bench -mc 50000 -lambda 9
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/cliutil"
)

func main() {
	var (
		genName = flag.String("gen", "", "generate a built-in benchmark")
		bench   = flag.String("bench", "", "load a netlist file (see -format)")
		format  = flag.String("format", "bench", "netlist format of -bench: bench (ISCAS) or verilog (gate-level structural)")
		libPath = flag.String("liberty", "", "map the netlist onto this Liberty library instead of the default")
		mc      = flag.Int("mc", 20000, "Monte-Carlo samples (0 disables)")
		seed    = flag.Int64("seed", 1, "Monte-Carlo seed")
		lambda  = flag.Float64("lambda", 3, "lambda for the WNSS trace")
		path    = flag.Bool("path", true, "print the WNSS and deterministic critical paths")
		kpaths  = flag.Int("paths", 0, "enumerate the k worst deterministic paths")
		critN   = flag.Int("crit", 0, "print the n most critical gates (statistical criticality)")
		sdfOut  = flag.String("sdf", "", "write statistical delay corners to this SDF file")
		whatIf  = flag.String("whatif", "", "gate=size resizes to evaluate without touching the design; comma-separated edits form one candidate, ';' separates batched candidates")
		backend = flag.String("optimizer", "",
			fmt.Sprintf("size the design with this backend (%s) at -lambda before analyzing; empty analyzes as loaded", strings.Join(repro.Optimizers(), "|")))
		workers = cliutil.WorkersFlag(flag.CommandLine)
		lint    = cliutil.LintFlag(flag.CommandLine)
		ingest  = cliutil.RegisterIngestFlags(flag.CommandLine)
	)
	flag.Parse()
	if err := cliutil.CheckWorkers(*workers); err != nil {
		fail(err)
	}
	if err := cliutil.CheckFormat(*format); err != nil {
		fail(err)
	}
	if err := ingest.Check(); err != nil {
		fail(err)
	}
	opts := repro.RunOptions{Workers: *workers}

	d, err := cliutil.LoadDesign(*genName, *bench, *format, *libPath, ingest.Limits(), *lint, os.Stderr)
	if err != nil {
		fail(err)
	}
	s := d.Stats()
	fmt.Printf("%s: %d gates, depth %d, area %.0f um^2\n", s.Name, s.Gates, s.Depth, s.Area)

	if *backend != "" {
		sized := opts
		sized.Optimizer = *backend
		r, err := d.Optimize(*lambda, sized)
		if err != nil {
			fail(err)
		}
		fmt.Printf("sized with %s (lambda=%g): sigma %.1f -> %.1f ps, %d iterations, %d evals\n",
			*backend, *lambda, r.SigmaBefore, r.SigmaAfter, r.Iterations, r.Evals)
	}

	a := d.AnalyzeOpts(opts)
	fmt.Printf("deterministic STA: %.1f ps\n", a.NominalDelay)
	fmt.Printf("FULLSSTA:          mu %.1f ps, sigma %.1f ps (sigma/mu %.4f)\n",
		a.Mean, a.Sigma, a.Sigma/a.Mean)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		T, err := a.PeriodForYield(q)
		if err != nil {
			fail(err)
		}
		fmt.Printf("  period for %.0f%% yield: %.1f ps\n", q*100, T)
	}
	if *mc > 0 {
		m, err := d.MonteCarloOpts(*mc, *seed, opts)
		if err != nil {
			fail(err)
		}
		fmt.Printf("Monte Carlo (%d):  mu %.1f ps, sigma %.1f ps\n", *mc, m.Mean, m.Sigma)
		fmt.Printf("  FULLSSTA error: mu %+.1f%%, sigma %+.1f%%\n",
			100*(a.Mean-m.Mean)/m.Mean, 100*(a.Sigma-m.Sigma)/m.Sigma)
	}
	if *path {
		wnss := d.WNSSPath(*lambda)
		det := d.CriticalPath()
		fmt.Printf("WNSS path (lambda=%g, %d gates): %s\n", *lambda, len(wnss), strings.Join(tail(wnss, 6), " -> "))
		fmt.Printf("WNS  path (deterministic, %d gates): %s\n", len(det), strings.Join(tail(det, 6), " -> "))
	}
	if *kpaths > 0 {
		fmt.Printf("%d worst deterministic paths:\n", *kpaths)
		for i, p := range d.WorstPaths(*kpaths) {
			fmt.Printf("  %2d  %8.1f ps  %s: %s\n", i+1, p.Arrival, p.Source, strings.Join(tail(p.Gates, 5), " -> "))
		}
	}
	if *critN > 0 {
		gates, err := d.Criticality(*critN, 5000, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%d most critical gates (Monte-Carlo criticality):\n", *critN)
		for _, g := range gates {
			fmt.Printf("  %-20s %.3f\n", g.Gate, g.Criticality)
		}
	}
	if *whatIf != "" {
		cands, err := parseWhatIf(*whatIf)
		if err != nil {
			fail(err)
		}
		reps, err := d.WhatIfBatch(cands, opts)
		if err != nil {
			fail(err)
		}
		for i, rep := range reps {
			fmt.Printf("what-if %d/%d (%d edits): mu %.1f -> %.1f ps, sigma %.1f -> %.1f ps\n",
				i+1, len(reps), len(cands[i]), rep.MeanBefore, rep.MeanAfter, rep.SigmaBefore, rep.SigmaAfter)
			fmt.Printf("  dirty-cone repair re-evaluated %d of %d gates\n", rep.NodesRepaired, rep.Gates)
		}
	}
	if *sdfOut != "" {
		f, err := os.Create(*sdfOut)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := d.SaveSDF(f, 3); err != nil {
			fail(err)
		}
		fmt.Printf("3-sigma delay corners written to %s\n", *sdfOut)
	}
}

// parseWhatIf parses the -whatif syntax "g1=2,g2=1;g3=0": commas join
// edits within one candidate, semicolons separate batched candidates.
func parseWhatIf(s string) ([][]repro.WhatIfEdit, error) {
	var cands [][]repro.WhatIfEdit
	for _, cand := range strings.Split(s, ";") {
		var edits []repro.WhatIfEdit
		for _, part := range strings.Split(cand, ",") {
			name, sizeStr, ok := strings.Cut(strings.TrimSpace(part), "=")
			if !ok {
				return nil, fmt.Errorf("-whatif: %q is not gate=size", part)
			}
			size, err := strconv.Atoi(sizeStr)
			if err != nil {
				return nil, fmt.Errorf("-whatif: bad size in %q: %v", part, err)
			}
			edits = append(edits, repro.WhatIfEdit{Gate: strings.TrimSpace(name), Size: size})
		}
		cands = append(cands, edits)
	}
	return cands, nil
}

// tail keeps the last n entries, prefixing an ellipsis if truncated.
func tail(s []string, n int) []string {
	if len(s) <= n {
		return s
	}
	return append([]string{"..."}, s[len(s)-n:]...)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ssta:", err)
	os.Exit(1)
}
