package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro"
	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/circuitlint"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/ingest"
	"repro/internal/montecarlo"
	"repro/internal/ssta"
	"repro/internal/synth"
	"repro/internal/variation"
	"repro/internal/verilog"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // scratch inputs, run record and span file
	sc       scale
	log      io.Writer
}

// setupRuns is how many times a run sets its workload up; setup_s is
// their median.
const setupRuns = 3

// check is one correctness-gate outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func checkErr(name string, err error) check {
	if err != nil {
		return check{Name: name, Detail: err.Error()}
	}
	return check{Name: name, OK: true}
}

// note is a number kept in the run record but not reported as a metric.
type note struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run measured.
type result struct {
	setupS    []float64
	latencyMS []float64
	opsPerS   float64
	peakMB    float64
	attempted int
	failed    int
	checks    []check
	notes     []note
	tr        *tracer // traced runs only
}

func (r *result) addCheck(c check) { r.checks = append(r.checks, c) }

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return r.failed == 0 && r.attempted > 0
}

// opOut is one timed operation: its latency and a fingerprint of every
// answer it produced, compared bit for bit against the warm-up rep.
type opOut struct {
	ms  float64
	fp  string
	err error
}

// serial is a workload of identical reps run back to back.
type serial interface {
	// rep runs one rep of one or more operations; tr is nil when untraced.
	rep(tr *tracer) []opOut
	// probe is the design the traced layer sweep measures.
	probe() (*probeTarget, error)
	// gate runs the workload's own correctness checks after measuring.
	gate() []check
	close()
}

// workloads maps each name to its setup.
var workloads = map[string]func(cfg runConfig) (serial, error){
	wSignoff: newSignoff,
	wSizing:  newSizing,
	wTable1:  newTable1,
}

// runSerial sets a serial workload up setupRuns times (keeping the last
// instance), warms it up with one untimed rep that also fixes the
// reference answers, and measures reps until their operations add up to
// the run's seconds. A traced run splits the seconds between an
// untraced and a traced pass and then sweeps the layers.
func runSerial(cfg runConfig, setup func(runConfig) (serial, error)) (*result, error) {
	res := &result{}
	var w serial
	for i := 0; i < setupRuns; i++ {
		if w != nil {
			w.close()
		}
		start := time.Now()
		var err error
		if w, err = setup(cfg); err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(start).Seconds())
	}
	defer w.close()
	ref := w.rep(nil)

	// A pass ends at the first failed operation: the run is failed
	// anyway, and a failure costs no measured time to stop on.
	pass := func(tr *tracer, seconds float64) []opOut {
		var ops []opOut
		for spent := 0.0; spent < seconds; {
			for _, o := range w.rep(tr) {
				ops = append(ops, o)
				if o.err != nil {
					return ops
				}
				spent += o.ms / 1000
			}
		}
		return ops
	}
	score := func(ops []opOut) []float64 {
		lat := make([]float64, 0, len(ops))
		for i, o := range ops {
			res.attempted++
			switch {
			case o.err != nil:
				res.failed++
				res.addCheck(checkErr("op", o.err))
			case o.fp != ref[i%len(ref)].fp:
				res.failed++
			default:
				lat = append(lat, o.ms)
			}
		}
		return lat
	}
	res.addCheck(refCheck(ref))

	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	heap := startHeapSampler()
	ops := pass(nil, seconds)
	res.peakMB = heap.stop()
	res.latencyMS = score(ops)
	total := 0.0
	for _, o := range ops {
		total += o.ms / 1000
	}
	res.opsPerS = float64(len(ops)) / total
	res.addCheck(check{Name: "reps_bit_identical", OK: res.failed == 0,
		Detail: fmt.Sprintf("%d of %d operations matched the warm-up rep", len(res.latencyMS), len(ops))})

	if cfg.trace {
		res.tr = newTracer(cfg.workload)
		traced := score(pass(res.tr, seconds))
		res.tr.add("trace.overhead_pct", 100*(median(traced)-median(res.latencyMS))/median(res.latencyMS))
		p, err := w.probe()
		if err == nil {
			err = sweep(res.tr, p, cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("layer sweep: %w", err)
		}
	}
	for _, c := range w.gate() {
		res.addCheck(c)
	}
	return res, nil
}

func refCheck(ref []opOut) check {
	for _, o := range ref {
		if o.err != nil {
			return checkErr("warmup", o.err)
		}
	}
	return check{Name: "warmup", OK: true}
}

// fingerprint hashes values printed at full precision (%v prints the
// shortest decimal that round-trips, so equal prints mean equal bits).
func fingerprint(vals ...any) string {
	h := sha256.New()
	for _, v := range vals {
		fmt.Fprintf(h, "%v|", v)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func msSince(t time.Time) float64 { return msOf(time.Since(t)) }

// heapSampler records the peak live heap (runtime/metrics
// /gc/heap/live:bytes, read without stopping the world) while a pass
// runs.
type heapSampler struct {
	quit chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: liveHeapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MB. A final GC makes the
// last pass's live heap visible to the sampler before it exits.
func (h *heapSampler) stop() float64 {
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	close(h.quit)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

// allocsOf runs fn once, untimed, and returns the heap allocations it
// made: the Mallocs delta, which counts every allocation exactly.
func allocsOf(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// ---- signoff-100k ----------------------------------------------------

// signoff is the large-design analysis path: a seeded ~100k-gate
// netlist written as Verilog, loaded through the commands' governed
// front door with lint on, analyzed with FULLSSTA and checked against
// Monte Carlo.
type signoff struct {
	path   string
	trials int
	seed   int64
}

func newSignoff(cfg runConfig) (serial, error) {
	c := ladderCircuit(cfg.seed, cfg.sc)
	path := filepath.Join(cfg.dir, fmt.Sprintf("signoff-%d.v", cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := verilog.Write(f, c); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return &signoff{path: path, trials: cfg.sc.mcTrials, seed: mcSeed(cfg.seed)}, nil
}

func (s *signoff) close() { os.Remove(s.path) }

// rep is cliutil.LoadNetlist + Design.AnalyzeOpts + Design.MonteCarloOpts,
// what `ssta -format verilog -mc N` does. The traced rep replays the
// same exported calls one layer at a time, so each gets its own span.
func (s *signoff) rep(tr *tracer) []opOut {
	if tr != nil {
		return []opOut{s.replay(tr)}
	}
	start := time.Now()
	d, err := s.load()
	if err != nil {
		return []opOut{{err: err}}
	}
	a := d.AnalyzeOpts(repro.RunOptions{})
	mc, err := d.MonteCarloOpts(s.trials, s.seed, repro.RunOptions{})
	ms := msSince(start)
	if err != nil {
		return []opOut{{err: err}}
	}
	return []opOut{{ms: ms, fp: fingerprint(a.Mean, a.Sigma, a.NominalDelay, a.PDFX, a.PDFY, mc.Mean, mc.Sigma, mc.PDFX, mc.PDFY)}}
}

func (s *signoff) replay(tr *tracer) opOut {
	root := tr.begin("signoff.rep", -1, 0)
	var (
		sd   *synth.Design
		vm   *variation.Model
		err  error
		full *ssta.Result
		mc   *montecarlo.Result
	)
	var c *circuit.Circuit
	tr.call("verilog.parse", root, func() {
		var f *os.File
		if f, err = os.Open(s.path); err != nil {
			return
		}
		defer f.Close()
		c, err = verilog.ParseOpts(f, s.path, ingest.Limits{})
	})
	if err == nil {
		lib := cells.Default90nm()
		tr.call("synth.map", root, func() { sd, err = synth.Map(c, lib) })
		vm = variation.Default(lib)
	}
	if err != nil {
		tr.end(root)
		return opOut{err: err}
	}
	tr.call("circuitlint.lint", root, func() {
		if diags := circuitlint.LintDesign(sd); circuitlint.HasErrors(diags) {
			err = fmt.Errorf("design fails lint: %d error finding(s)", len(circuitlint.Errors(diags)))
		}
	})
	if err == nil {
		tr.call("ssta.analyze", root, func() { full = ssta.Analyze(sd, vm, ssta.Options{}) })
		tr.call("montecarlo.analyze", root, func() {
			mc, err = montecarlo.AnalyzeOpts(sd, vm, montecarlo.Options{Trials: s.trials, Seed: s.seed})
		})
		// MonteCarloOpts re-runs FULLSSTA to back yield queries.
		tr.call("ssta.analyze", root, func() { ssta.Analyze(sd, vm, ssta.Options{}) })
	}
	ms := msOf(tr.end(root))
	if err != nil {
		return opOut{err: err}
	}
	xs, ps := full.CircuitPDF.Support()
	mxs, mps := mc.PDF(15).Support()
	return opOut{ms: ms, fp: fingerprint(full.Mean, full.Sigma, full.STA.MaxArrival, xs, ps, mc.Mean, mc.Sigma, mxs, mps)}
}

// load is the governed front door of the commands, lint on. No rep
// keeps its design, so the peak heap is one rep's.
func (s *signoff) load() (*repro.Design, error) {
	return cliutil.LoadNetlist(s.path, "verilog", "", repro.IngestLimits{}, true, io.Discard)
}

func (s *signoff) probe() (*probeTarget, error) {
	d, err := s.load()
	if err != nil {
		return nil, err
	}
	return &probeTarget{d: d, verilogPath: s.path, coreIters: 3, sensIters: 2}, nil
}

// gate checks that Monte Carlo draws the same samples with one worker
// as with two.
func (s *signoff) gate() []check {
	d, err := s.load()
	if err != nil {
		return []check{checkErr("mc_workers_1_vs_2", err)}
	}
	sd, vm := d.Internal()
	var got [2][]float64
	for i, w := range []int{1, 2} {
		var err error
		got[i], err = montecarlo.SampleRange(sd, vm, montecarlo.Options{Seed: s.seed, Workers: w}, 0, 32)
		if err != nil {
			return []check{checkErr("mc_workers_1_vs_2", err)}
		}
	}
	return []check{{Name: "mc_workers_1_vs_2", OK: fingerprint(got[0]) == fingerprint(got[1])}}
}

// ---- sizing-26k ------------------------------------------------------

// sizing is the paper's optimizer on a design it really improves:
// StatisticalGreedy at lambda 3 from a mean-delay-optimized start.
type sizing struct {
	base  *repro.Design
	iters int
	last  *core.Result
}

const sizingLambda = 3

func newSizing(cfg runConfig) (serial, error) {
	d, err := repro.FromCircuit(sizingCircuit(cfg.seed, cfg.sc))
	if err != nil {
		return nil, err
	}
	if _, err := d.OptimizeMeanDelay(); err != nil {
		return nil, err
	}
	return &sizing{base: d, iters: cfg.sc.sizingIters}, nil
}

func (s *sizing) close() {}

func (s *sizing) rep(tr *tracer) []opOut {
	out, r := optimizeOp(tr, s.base, "statgreedy", core.Options{
		Lambda: sizingLambda, MaxIters: s.iters, Incremental: true,
	}, "")
	s.last = r
	return []opOut{out}
}

// optimizeOp runs one backend on a clone of base, the way Design.Optimize
// does, times it, and checks the run with the difftest re-analysis
// oracle outside the timed region. Traced runs get a span per outer
// iteration from the checkpoint callback, and each iteration's time is
// recorded under iterMetric when it is not empty.
func optimizeOp(tr *tracer, base *repro.Design, name string, opts core.Options, iterMetric string) (opOut, *core.Result) {
	d := base.Clone()
	sd, vm := d.Internal()
	o, ok := core.LookupOptimizer(name)
	if !ok {
		return opOut{err: fmt.Errorf("optimizer %q not registered", name)}, nil
	}
	root := tr.begin("core."+name, -1, 0)
	if tr != nil {
		// The span still open when Run returns covers the final restore
		// and is left out of the trace.
		iter := tr.begin("core."+name+".iter", root, 0)
		opts.Checkpoint = func(core.Checkpoint) {
			d := tr.end(iter)
			if iterMetric != "" {
				tr.add(iterMetric, msOf(d))
			}
			iter = tr.begin("core."+name+".iter", root, 0)
		}
	}
	start := time.Now()
	r, err := o.Run(sd, vm, opts)
	ms := msSince(start)
	tr.end(root)
	if err != nil {
		return opOut{err: err}, nil
	}
	opts.Checkpoint = nil
	if err := difftest.CheckOptimizerResult(name, sd, vm, opts, r); err != nil {
		return opOut{err: err}, r
	}
	return opOut{ms: ms, fp: fingerprint(d.Sizes(), r.Final, r.Iterations, r.StoppedBy)}, r
}

func (s *sizing) probe() (*probeTarget, error) {
	return &probeTarget{d: s.base, coreIters: s.iters, sensIters: 2}, nil
}

// gate checks that the workload is not a no-op: the optimizer must cut
// the cost by at least 10% within the iteration cap.
func (s *sizing) gate() []check {
	r := s.last
	if r == nil {
		return []check{{Name: "sizing_improves", Detail: "the last optimizer run failed"}}
	}
	cut := 1 - r.Final.Cost/r.Initial.Cost
	return []check{{Name: "sizing_improves", OK: cut >= 0.10,
		Detail: fmt.Sprintf("cost %.1f -> %.1f ps (%.1f%% lower) in %d iterations, stopped by %s",
			r.Initial.Cost, r.Final.Cost, 100*cut, r.Iterations, r.StoppedBy)}}
}

// ---- table1 ----------------------------------------------------------

// table1 is the paper's Table-1 traffic: StatisticalGreedy at lambda 3
// and 9 on every benchmark, plus the sensitivity backend at lambda 9 on
// a few, each from the benchmark's mean-delay baseline. One rep is the
// whole sweep in a seeded order; each optimizer run is one operation.
type table1 struct {
	runs []table1Run
	pd   *repro.Design // the probe circuit's baseline
}

type table1Run struct {
	base *repro.Design
	name string // backend
	opts core.Options
}

func newTable1(cfg runConfig) (serial, error) {
	t := &table1{}
	sens := make(map[string]bool)
	for _, n := range cfg.sc.sensitivity {
		sens[n] = true
	}
	for _, n := range cfg.sc.table1 {
		d, err := repro.Generate(n)
		if err != nil {
			return nil, err
		}
		if _, err := d.OptimizeMeanDelay(); err != nil {
			return nil, err
		}
		if n == cfg.sc.table1Probe {
			t.pd = d
		}
		for _, l := range []float64{3, 9} {
			t.runs = append(t.runs, table1Run{base: d, name: "statgreedy", opts: core.Options{Lambda: l, Incremental: true}})
		}
		if sens[n] {
			t.runs = append(t.runs, table1Run{base: d, name: "sensitivity",
				opts: core.Options{Lambda: 9, MaxIters: cfg.sc.sensIters, Incremental: true}})
		}
	}
	// The seed orders the sweep. It does not reach the sensitivity
	// backend's tie-breaking seed, which would change how much work the
	// three sensitivity runs do.
	r := newRand(cfg.seed, streamTable1)
	r.Shuffle(len(t.runs), func(a, b int) { t.runs[a], t.runs[b] = t.runs[b], t.runs[a] })
	return t, nil
}

func (t *table1) close() {}

func (t *table1) rep(tr *tracer) []opOut {
	out := make([]opOut, len(t.runs))
	for i, run := range t.runs {
		out[i], _ = optimizeOp(tr, run.base, run.name, run.opts, "")
	}
	return out
}

func (t *table1) probe() (*probeTarget, error) {
	return &probeTarget{d: t.pd, coreIters: 20, sensIters: 5}, nil
}

func (t *table1) gate() []check { return nil }
