// Command svsize is the statistical variance-aware gate sizer: it loads
// or generates a circuit, establishes the mean-delay-optimized baseline,
// runs the paper's StatisticalGreedy optimizer at a chosen lambda, and
// reports the before/after statistics.
//
//	svsize -gen c432 -lambda 9
//	svsize -bench netlist.bench -lambda 3 -recover 0.01 -out sized.bench
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/cliutil"
)

func main() {
	var (
		genName = flag.String("gen", "", "generate a built-in benchmark (see -list)")
		bench   = flag.String("bench", "", "load a netlist file (see -format)")
		format  = flag.String("format", "bench", "netlist format of -bench: bench (ISCAS) or verilog (gate-level structural)")
		vlog    = flag.String("verilog", "", "load a structural Verilog netlist (same as -bench <file> -format verilog)")
		libFile = flag.String("lib", "", "map onto a Liberty (.lib) library instead of the built-in one (alias: -liberty)")
		libAlt  = flag.String("liberty", "", "alias of -lib, matching ssta")
		lambda  = flag.Float64("lambda", 3, "sigma weight in the cost mu + lambda*sigma")
		backend = flag.String("optimizer", repro.DefaultOptimizer,
			fmt.Sprintf("sizing backend: %s", strings.Join(repro.Optimizers(), "|")))
		seed    = flag.Int64("seed", 0, "tie-breaking seed for the sensitivity backend")
		recover = flag.Float64("recover", 0.01, "area-recovery cost slack fraction (0 disables)")
		skipMD  = flag.Bool("skip-baseline", false, "skip the mean-delay baseline pass")
		out     = flag.String("out", "", "write the sized netlist to this .bench file")
		list    = flag.Bool("list", false, "list built-in benchmarks and exit")
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
	if *libAlt != "" {
		if *libFile != "" && *libFile != *libAlt {
			fail(fmt.Errorf("-lib and -liberty disagree; pass one"))
		}
		*libFile = *libAlt
	}
	opts := repro.RunOptions{Workers: *workers, Optimizer: *backend, Seed: *seed}
	if err := opts.Validate(); err != nil {
		fail(err)
	}
	if *list {
		for _, n := range repro.Benchmarks() {
			fmt.Println(n)
		}
		return
	}
	d, err := load(*genName, *bench, *format, *vlog, *libFile, ingest.Limits(), *lint)
	if err != nil {
		fail(err)
	}
	s := d.Stats()
	fmt.Printf("%s: %d gates, %d inputs, %d outputs, depth %d, area %.0f um^2\n",
		s.Name, s.Gates, s.Inputs, s.Outputs, s.Depth, s.Area)

	if !*skipMD {
		r, err := d.OptimizeMeanDelayOpts(opts)
		if err != nil {
			fail(err)
		}
		fmt.Printf("mean-delay baseline: nominal %.0f -> %.0f ps (%d iterations, %v)\n",
			r.MeanBefore, r.MeanAfter, r.Iterations, r.Runtime.Round(1e6))
	}
	before := d.AnalyzeOpts(opts)
	fmt.Printf("original:  mu %.1f ps, sigma %.1f ps (sigma/mu %.4f)\n",
		before.Mean, before.Sigma, before.Sigma/before.Mean)

	r, err := d.Optimize(*lambda, opts)
	if err != nil {
		fail(err)
	}
	if *recover > 0 {
		saved, err := d.RecoverAreaOpts(*lambda, *recover, opts)
		if err != nil {
			fail(err)
		}
		fmt.Printf("area recovery: %.0f um^2 reclaimed\n", saved)
	}
	after := d.AnalyzeOpts(opts)
	fmt.Printf("optimized: mu %.1f ps (%+.1f%%), sigma %.1f ps (%+.1f%%), area %.0f um^2 (%+.1f%%)\n",
		after.Mean, 100*(after.Mean-before.Mean)/before.Mean,
		after.Sigma, 100*(after.Sigma-before.Sigma)/before.Sigma,
		d.Stats().Area, 100*(d.Stats().Area-s.Area)/s.Area)
	fmt.Printf("optimizer %s: %d iterations, stopped by %s, %v (%d evals)\n",
		*backend, r.Iterations, r.StoppedBy, r.Runtime.Round(1e6), r.Evals)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := d.SaveBench(f); err != nil {
			fail(err)
		}
		fmt.Printf("netlist written to %s (sizes are not part of .bench)\n", *out)
	}
}

func load(genName, bench, format, vlog, libFile string, lim repro.IngestLimits, lint bool) (*repro.Design, error) {
	sources := 0
	for _, s := range []string{genName, bench, vlog} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("pass exactly one of -gen, -bench, -verilog")
	}
	// -verilog <file> is shorthand for -bench <file> -format verilog;
	// every file load funnels through the shared governed front door.
	if vlog != "" {
		bench, format = vlog, "verilog"
	}
	if genName != "" {
		if libFile != "" {
			return nil, fmt.Errorf("-lib does not combine with -gen (built-ins use the default library)")
		}
		d, err := repro.Generate(genName)
		if err != nil {
			return nil, err
		}
		return d, cliutil.CheckDesign(d, lint, os.Stderr)
	}
	return cliutil.LoadNetlist(bench, format, libFile, lim, lint, os.Stderr)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "svsize:", err)
	os.Exit(1)
}
