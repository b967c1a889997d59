package main

import (
	"math"
	"sort"
)

// metricDef is one metric the benchmark reports. BENCHMARK.json lists
// the same names, units and directions; TestBenchmarkJSONMatchesRegistry
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound (end-to-end metrics only) is the share of the parent's
	// median by which the metric may get worse before a change counts as
	// a regression.
	Bound float64
	// Moves, Heavy and Light (per-layer metrics only) record the
	// prediction written down before measuring: a change to this layer
	// moves the end-to-end metric Moves on workload Heavy, and should
	// leave workload Light unchanged (empty when every workload runs the
	// layer). Moves is "none" for metrics that check the measurement or
	// the answer rather than a cost.
	Moves, Heavy, Light string
}

// Workload names, shared by the registry below and the runners.
const (
	wSignoff = "signoff-100k"
	wSizing  = "sizing-26k"
	wTable1  = "table1"
	wService = "service"
)

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them; the unit of "one operation" is the workload's
// own (see the package documentation).
var endToEnd = []metricDef{
	{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: 0.24},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.24},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the traced run's metrics: one row per layer boundary the
// benchmark times from outside, measured on every workload's own design.
var perLayer = []metricDef{
	{Name: "verilog.parse_ms", Unit: "ms", Better: "lower", Moves: "latency_ms", Heavy: wSignoff, Light: wSizing},
	{Name: "benchfmt.parse_ms", Unit: "ms", Better: "lower", Moves: "latency_ms", Heavy: wService, Light: wSignoff},
	{Name: "circuitlint.lint_ms", Unit: "ms", Better: "lower", Moves: "latency_ms", Heavy: wSignoff, Light: wTable1},
	{Name: "synth.map_ms", Unit: "ms", Better: "lower", Moves: "latency_ms", Heavy: wSignoff, Light: wTable1},
	{Name: "circuit.levels_ms", Unit: "ms", Better: "lower", Moves: "latency_ms", Heavy: wSignoff, Light: wTable1},
	{Name: "sta.analyze_ms", Unit: "ms", Better: "lower", Moves: "latency_ms", Heavy: wSignoff},
	{Name: "ssta.analyze_ms.w1", Unit: "ms", Better: "lower", Moves: "latency_ms", Heavy: wSignoff, Light: wSizing},
	{Name: "ssta.analyze_ms.w2", Unit: "ms", Better: "lower", Moves: "latency_ms", Heavy: wSignoff, Light: wSizing},
	{Name: "ssta.analyze_allocs", Unit: "count", Better: "lower", Moves: "latency_ms", Heavy: wSignoff, Light: wSizing},
	{Name: "ssta.flat_build_ms", Unit: "ms", Better: "lower", Moves: "latency_ms", Heavy: wService, Light: wSignoff},
	{Name: "ssta.resize_repair_us", Unit: "us", Better: "lower", Moves: "latency_ms", Heavy: wSizing, Light: wSignoff},
	{Name: "ssta.repair_nodes", Unit: "count", Better: "lower", Moves: "latency_ms", Heavy: wSizing, Light: wSignoff},
	{Name: "ssta.batch_whatif_ms", Unit: "ms", Better: "lower", Moves: "latency_ms", Heavy: wTable1, Light: wSignoff},
	{Name: "ssta.batch_whatif_allocs", Unit: "count", Better: "lower", Moves: "latency_ms", Heavy: wTable1, Light: wSignoff},
	{Name: "ssta.batch_whatif_nodes", Unit: "count", Better: "lower", Moves: "latency_ms", Heavy: wTable1, Light: wSignoff},
	{Name: "ssta.sigma_err_pct", Unit: "%", Better: "lower", Moves: "none", Heavy: wSignoff},
	{Name: "wnss.trace_ms", Unit: "ms", Better: "lower", Moves: "latency_ms", Heavy: wSizing, Light: wSignoff},
	{Name: "fassta.extract_us", Unit: "us", Better: "lower", Moves: "latency_ms", Heavy: wSizing, Light: wSignoff},
	{Name: "fassta.best_size_us", Unit: "us", Better: "lower", Moves: "latency_ms", Heavy: wSizing, Light: wSignoff},
	{Name: "core.iter_ms", Unit: "ms", Better: "lower", Moves: "latency_ms", Heavy: wSizing, Light: wSignoff},
	{Name: "core.iter_ms.p90", Unit: "ms", Better: "lower", Moves: "latency_ms", Heavy: wSizing, Light: wSignoff},
	{Name: "core.iterations", Unit: "count", Better: "lower", Moves: "latency_ms", Heavy: wTable1, Light: wSignoff},
	{Name: "core.evals", Unit: "count", Better: "lower", Moves: "latency_ms", Heavy: wTable1, Light: wSignoff},
	{Name: "core.node_evals", Unit: "count", Better: "lower", Moves: "latency_ms", Heavy: wSizing, Light: wSignoff},
	{Name: "core.analysis_share", Unit: "ratio", Better: "lower", Moves: "latency_ms", Heavy: wSizing, Light: wSignoff},
	{Name: "core.cost_reduction_pct", Unit: "%", Better: "higher", Moves: "none", Heavy: wSizing},
	{Name: "core.meandelay_ms", Unit: "ms", Better: "lower", Moves: "setup_s", Heavy: wSizing, Light: wService},
	{Name: "core.sensitivity.iter_ms", Unit: "ms", Better: "lower", Moves: "latency_ms", Heavy: wTable1, Light: wSignoff},
	{Name: "core.sensitivity.evals", Unit: "count", Better: "lower", Moves: "latency_ms", Heavy: wTable1, Light: wSignoff},
	{Name: "core.sensitivity.node_evals", Unit: "count", Better: "lower", Moves: "latency_ms", Heavy: wTable1, Light: wSignoff},
	{Name: "montecarlo.trials_per_s.w1", Unit: "1/s", Better: "higher", Moves: "latency_ms", Heavy: wSignoff, Light: wSizing},
	{Name: "montecarlo.trials_per_s.w2", Unit: "1/s", Better: "higher", Moves: "latency_ms", Heavy: wSignoff, Light: wSizing},
	{Name: "montecarlo.allocs_per_trial", Unit: "count", Better: "lower", Moves: "latency_ms", Heavy: wSignoff, Light: wSizing},
	{Name: "server.submit_ms", Unit: "ms", Better: "lower", Moves: "latency_ms", Heavy: wService, Light: wSizing},
	{Name: "jobs.queue_wait_ms", Unit: "ms", Better: "lower", Moves: "latency_ms", Heavy: wService, Light: wSizing},
	{Name: "jobs.run_ms.analyze", Unit: "ms", Better: "lower", Moves: "latency_ms", Heavy: wService, Light: wSizing},
	{Name: "jobs.run_ms.montecarlo", Unit: "ms", Better: "lower", Moves: "latency_ms", Heavy: wService, Light: wSizing},
	{Name: "jobs.run_ms.wnsspath", Unit: "ms", Better: "lower", Moves: "latency_ms", Heavy: wService, Light: wSizing},
	{Name: "jobs.run_ms.whatif", Unit: "ms", Better: "lower", Moves: "latency_ms", Heavy: wService, Light: wSizing},
	{Name: "jobs.run_ms.optimize", Unit: "ms", Better: "lower", Moves: "latency_ms", Heavy: wService, Light: wSizing},
	{Name: "designcache.hit_ratio", Unit: "ratio", Better: "higher", Moves: "ops_per_s", Heavy: wService, Light: wSizing},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: "none", Heavy: wSignoff},
}

// summary is a sample set reduced the way the regression check reads
// it: median and quartiles (Python's statistics.quantiles, exclusive
// method, so numbers agree with the pipeline's own), with n and every
// sample kept for the run record.
type summary struct {
	N       int       `json:"n"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	out := summary{N: len(s), Samples: xs}
	if len(s) == 0 {
		return out
	}
	out.Median = percentile(s, 50)
	out.Q1, out.Q3 = quartiles(s)
	return out
}

// quartiles returns the first and third quartile of sorted data with
// the exclusive method of Python's statistics.quantiles(n=4).
func quartiles(s []float64) (q1, q3 float64) {
	if len(s) == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// percentile interpolates linearly between closest ranks of sorted data.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile is the highest of p99, p98, ..., p50 that leaves at
// least ten samples beyond it, the deepest tail the sample supports; ok
// is false when even the median does not.
func tailPercentile(n int) (p float64, ok bool) {
	for p := 99; p >= 50; p-- {
		if n*(100-p) >= 1000 {
			return float64(p), true
		}
	}
	return 0, false
}

func median(xs []float64) float64 { return summarize(xs).Median }
