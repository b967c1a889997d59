package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/client"
	"repro/internal/benchfmt"
	"repro/internal/circuit"
	"repro/internal/circuitlint"
	"repro/internal/core"
	"repro/internal/fassta"
	"repro/internal/ingest"
	"repro/internal/montecarlo"
	"repro/internal/server"
	"repro/internal/ssta"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/verilog"
	"repro/internal/wnss"
)

// probeTarget is the design a workload's traced layer sweep measures:
// the workload's own design, so each layer is timed on the inputs that
// workload feeds it.
type probeTarget struct {
	d *repro.Design
	// verilogPath is the Verilog file the workload reads; empty means
	// the sweep writes the design's own netlist.
	verilogPath string
	// coreIters and sensIters cap the StatisticalGreedy and sensitivity
	// runs (0 = the optimizer's default).
	coreIters, sensIters int
	// noServer skips the sstad session: the service workload measures
	// those layers under its own traffic instead.
	noServer bool
}

const (
	probeLambda = 3
	whatIfK     = 16
	minCalls    = 10
	maxCalls    = 1000 // bounds the span file
	// sensMaxGates is the largest design the sensitivity probe runs on.
	sensMaxGates = 5000
	repairPicks  = 32
)

// prober times one layer call at a time. Each probe runs at least
// minCalls calls and scale.probeMin of wall time, or scale.probeMax,
// whichever ends first.
type prober struct {
	tr       *tracer
	min, max time.Duration
}

// loop runs call(0), call(1), ... under the budget; each call times
// its own span and returns the span's duration.
func (p prober) loop(call func(i int) time.Duration) {
	var spent time.Duration
	for i := 0; i < maxCalls && spent < p.max && (i < minCalls || spent < p.min); i++ {
		spent += call(i)
	}
}

// repeat times fn in spans named span, recording conv(duration) of
// each call as a sample of metric.
func (p prober) repeat(span, metric string, conv func(time.Duration) float64, fn func()) {
	p.loop(func(int) time.Duration {
		d := p.tr.call(span, -1, fn)
		p.tr.add(metric, conv(d))
		return d
	})
}

// sweep times every layer the benchmark reaches, one exported call at a
// time, on the probe design. It never mutates p.d: the optimizer and
// incremental-engine probes work on clones.
func sweep(tr *tracer, p *probeTarget, cfg runConfig) error {
	sd, vm := p.d.Internal()
	name := sd.Circuit.Name
	r := newRand(cfg.seed, streamWhatIf)
	pr := prober{tr: tr, min: cfg.sc.probeMin, max: cfg.sc.probeMax}

	var vtext []byte
	var err error
	if p.verilogPath != "" {
		if vtext, err = os.ReadFile(p.verilogPath); err != nil {
			return err
		}
	} else {
		var buf bytes.Buffer
		if err := verilog.Write(&buf, sd.Circuit); err != nil {
			return err
		}
		vtext = buf.Bytes()
	}
	var btext strings.Builder
	if err := benchfmt.Write(&btext, sd.Circuit); err != nil {
		return err
	}

	// Ingest, lint, mapping and levelization.
	var parsed *circuit.Circuit
	pr.repeat("verilog.parse", "verilog.parse_ms", msOf, func() {
		parsed, err = verilog.ParseOpts(bytes.NewReader(vtext), name, ingest.Limits{})
	})
	if err != nil {
		return fmt.Errorf("verilog: %w", err)
	}
	pr.repeat("benchfmt.parse", "benchfmt.parse_ms", msOf, func() {
		parsed, err = benchfmt.Parse(strings.NewReader(btext.String()), name)
	})
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	pr.repeat("synth.map", "synth.map_ms", msOf, func() { _, err = synth.Map(parsed, sd.Lib) })
	if err != nil {
		return fmt.Errorf("map: %w", err)
	}
	pr.repeat("circuitlint.lint", "circuitlint.lint_ms", msOf, func() {
		if diags := circuitlint.LintDesign(sd); circuitlint.HasErrors(diags) {
			err = fmt.Errorf("lint: %d error finding(s)", len(circuitlint.Errors(diags)))
		}
	})
	if err != nil {
		return err
	}
	pr.loop(func(int) time.Duration {
		c := sd.Circuit.Clone() // a clone starts with cold topo and level caches
		d := tr.call("circuit.levels", -1, func() { c.Levels() })
		tr.add("circuit.levels_ms", msOf(d))
		return d
	})

	// Whole-circuit timing.
	pr.repeat("sta.analyze", "sta.analyze_ms", msOf, func() { sta.Analyze(sd) })
	for _, w := range []int{1, 2} {
		pr.repeat(fmt.Sprintf("ssta.analyze.w%d", w), fmt.Sprintf("ssta.analyze_ms.w%d", w), msOf, func() {
			ssta.Analyze(sd, vm, ssta.Options{Workers: w})
		})
	}
	tr.add("ssta.analyze_allocs", allocsOf(func() { ssta.Analyze(sd, vm, ssta.Options{Workers: 1}) }))
	pr.repeat("ssta.flat_build", "ssta.flat_build_ms", msOf, func() { ssta.NewFlat(sd, vm, ssta.Options{}) })

	// Incremental repair and batched what-if on a private copy.
	work := &synth.Design{Circuit: sd.Circuit.Clone(), Lib: sd.Lib}
	inc := ssta.NewIncremental(work, vm, ssta.Options{})
	// A fixed set of seeded single-gate resizes, cycled for as long as
	// the budget allows; the repair sizes are counted over one cycle so
	// the count does not depend on how many calls fit the budget.
	var picks []ssta.SizeChange
	for _, cand := range whatIfCandidates(r, work, repairPicks) {
		if ch := cand[0]; ch.Size != work.Circuit.Gate(ch.Gate).SizeIdx {
			picks = append(picks, ch)
		}
	}
	pr.loop(func(i int) time.Duration {
		ch := picks[i%len(picks)]
		var nodes int
		d := tr.call("ssta.resize_repair", -1, func() { nodes = inc.Resize(ch.Gate, ch.Size) })
		inc.Rollback()
		tr.add("ssta.resize_repair_us", usOf(d))
		if i < len(picks) {
			tr.add("ssta.repair_nodes", float64(nodes))
		}
		return d
	})
	cands := whatIfCandidates(r, work, whatIfK)
	var outs []ssta.WhatIfOutcome
	pr.repeat("ssta.batch_whatif", "ssta.batch_whatif_ms", msOf, func() {
		outs = inc.BatchWhatIf(cands, probeLambda, 0)
	})
	nodes := 0
	for _, o := range outs {
		nodes += o.Touched
	}
	tr.add("ssta.batch_whatif_nodes", float64(nodes))
	tr.add("ssta.batch_whatif_allocs", allocsOf(func() { inc.BatchWhatIf(cands, probeLambda, 0) }))

	// The optimizer's inner engines: WNSS tracing and FASSTA scoring.
	full := ssta.Analyze(sd, vm, ssta.Options{})
	var path []circuit.GateID
	pr.repeat("wnss.trace", "wnss.trace_ms", msOf, func() {
		path = wnss.TraceTopK(sd, full, vm, probeLambda, 16)
	})
	var logic []circuit.GateID
	for _, id := range path {
		if sd.Circuit.Gate(id).Fn.IsLogic() {
			logic = append(logic, id)
		}
	}
	if len(logic) == 0 {
		return fmt.Errorf("WNSS path of %s has no logic gate", name)
	}
	ex := fassta.NewExtractor(sd)
	ex.Prime()
	var sub *fassta.Subcircuit
	i := 0
	pr.repeat("fassta.extract", "fassta.extract_us", usOf, func() {
		sub = ex.Extract(full, vm, logic[i%len(logic)], 2)
		i++
	})
	pr.repeat("fassta.best_size", "fassta.best_size_us", usOf, func() { sub.BestSize(probeLambda, 1) })

	// Whole optimizer runs, with per-iteration times from the checkpoint
	// callback (the first iteration also pays the initial analysis).
	out, res := optimizeOp(tr, p.d, "statgreedy", core.Options{
		Lambda: probeLambda, MaxIters: p.coreIters, Incremental: true,
	}, "core.iter_ms")
	if out.err != nil {
		return out.err
	}
	tr.add("core.iterations", float64(res.Iterations))
	tr.add("core.evals", float64(res.Evals))
	tr.add("core.node_evals", float64(res.NodeEvals))
	tr.add("core.analysis_share", res.AnalysisTime.Seconds()/res.Runtime.Seconds())
	tr.add("core.cost_reduction_pct", 100*(1-res.Final.Cost/res.Initial.Cost))
	tr.add("core.iter_ms.p90", percentile(sortedCopy(tr.sampled("core.iter_ms")), 90))
	// One sensitivity iteration scores every gate's moves, which takes
	// minutes on the signoff and sizing designs; those lend the probe one
	// ~1.1k-gate ladder block instead.
	sens := p.d
	if sd.Circuit.NumGates() > sensMaxGates {
		if sens, err = repro.FromCircuit(ladderCircuit(cfg.seed, scale{ladderGates: 1, blockScale: 100})); err != nil {
			return err
		}
	}
	out, res = optimizeOp(tr, sens, "sensitivity", core.Options{
		Lambda: 9, MaxIters: p.sensIters, Incremental: true, Seed: cfg.seed,
	}, "core.sensitivity.iter_ms")
	if out.err != nil {
		return out.err
	}
	tr.add("core.sensitivity.evals", float64(res.Evals))
	tr.add("core.sensitivity.node_evals", float64(res.NodeEvals))
	unsized := &synth.Design{Circuit: sd.Circuit.Clone(), Lib: sd.Lib}
	unsized.Circuit.RestoreSizes(make([]int, unsized.Circuit.NumGates()))
	d := tr.call("core.meandelay", -1, func() {
		_, err = core.MeanDelayGreedy(unsized, vm, core.Options{Incremental: true})
	})
	if err != nil {
		return fmt.Errorf("meandelay: %w", err)
	}
	tr.add("core.meandelay_ms", msOf(d))

	// Monte Carlo at one and two workers, and FULLSSTA's sigma error
	// against it.
	trials := max(20, 2_000_000/sd.Circuit.NumGates())
	seed := mcSeed(cfg.seed)
	var mcErr error
	mcRun := func(w int) func() {
		return func() {
			if _, err := montecarlo.AnalyzeOpts(sd, vm, montecarlo.Options{Trials: trials, Seed: seed, Workers: w}); err != nil {
				mcErr = err
			}
		}
	}
	perSecond := func(d time.Duration) float64 { return float64(trials) / d.Seconds() }
	for _, w := range []int{1, 2} {
		pr.repeat(fmt.Sprintf("montecarlo.analyze.w%d", w), fmt.Sprintf("montecarlo.trials_per_s.w%d", w), perSecond, mcRun(w))
	}
	tr.add("montecarlo.allocs_per_trial", allocsOf(mcRun(1))/float64(trials))
	if mcErr != nil {
		return mcErr
	}
	var mc *montecarlo.Result
	tr.call("montecarlo.analyze.accuracy", -1, func() {
		mc, mcErr = montecarlo.AnalyzeOpts(sd, vm, montecarlo.Options{Trials: max(200, trials), Seed: seed})
	})
	if mcErr != nil {
		return mcErr
	}
	tr.add("ssta.sigma_err_pct", 100*math.Abs(full.Sigma-mc.Sigma)/mc.Sigma)

	if p.noServer {
		return nil
	}
	return serverSession(tr, sd, btext.String(), p.coreIters, trials)
}

// serverSession submits the probe design to an in-process sstad once
// per op, then repeats the first request (a result-memo hit), and
// records submit, queue-wait and run times.
func serverSession(tr *tracer, sd *synth.Design, bench string, iters, samples int) error {
	srv, err := server.New(server.Config{JobWorkers: runtime.NumCPU()})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Shutdown(context.Background())
	}()
	cl := client.New(ts.URL, client.WithRetry(client.NoRetry))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	name := sd.Circuit.Name
	cands := whatIfCandidates(newRand(1, streamWhatIf), sd, whatIfK)
	var edits [][]client.Edit
	for _, cand := range cands {
		var es []client.Edit
		for _, ch := range cand {
			es = append(es, client.Edit{Gate: sd.Circuit.Gate(ch.Gate).Name, Size: ch.Size})
		}
		edits = append(edits, es)
	}
	reqs := []client.JobRequest{
		{Op: client.OpAnalyze, TargetYields: []float64{0.9, 0.99}},
		{Op: client.OpMonteCarlo, Samples: samples, Seed: 1},
		{Op: client.OpWNSSPath, Lambda: probeLambda},
		{Op: client.OpWhatIf, Candidates: edits},
		{Op: client.OpOptimize, Lambda: probeLambda, MaxIters: iters},
	}
	reqs = append(reqs, reqs[0]) // a repeat, answered from the result memo
	var jobs jobCounter
	for _, req := range reqs {
		req.Bench, req.Name = bench, name
		var st *client.JobStatus
		d := tr.call("server.submit", -1, func() { st, err = cl.Submit(ctx, req) })
		tr.add("server.submit_ms", msOf(d))
		if err != nil {
			return fmt.Errorf("submit %s: %w", req.Op, err)
		}
		if !st.Terminal() {
			tr.call("client.wait", -1, func() { st, err = cl.Wait(ctx, st.ID) })
			if err != nil {
				return fmt.Errorf("wait %s: %w", req.Op, err)
			}
		}
		if st.State != "done" {
			return fmt.Errorf("%s job %s: %s", req.Op, st.State, st.Error)
		}
		jobs.add(tr, st)
	}
	jobs.record(tr)
	return nil
}

// jobCounter records each finished job's server timings, read from its
// status, and counts result-memo hits for the hit ratio.
type jobCounter struct{ jobs, hits int }

func (j *jobCounter) add(tr *tracer, st *client.JobStatus) {
	j.jobs++
	tr.add("jobs.queue_wait_ms", msOf(st.Started.Sub(st.Created)))
	if st.CacheHit {
		j.hits++
		return
	}
	tr.add("jobs.run_ms."+st.Op, msOf(st.Finished.Sub(st.Started)))
}

func (j *jobCounter) record(tr *tracer) {
	if j.jobs > 0 {
		tr.add("designcache.hit_ratio", float64(j.hits)/float64(j.jobs))
	}
}
