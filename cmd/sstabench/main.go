package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/buildinfo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func workloadNames() []string {
	names := []string{wService}
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run parses the flags, runs one workload and reports it. Exit codes: 0
// when every correctness check passed, 1 when one failed or the run
// could not finish, 2 for bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sstabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every generated input is drawn from")
	seconds := fs.Float64("seconds", 20, "seconds of operations to measure")
	trace := fs.Int("trace", 0, "1 runs the traced pass: per-layer metrics, a span file and the tracing overhead")
	out := fs.String("out", filepath.Join(".bench_build", "sstabench"), "directory for scratch inputs, the run record and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	valid := false
	for _, n := range workloadNames() {
		valid = valid || n == *workload
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "sstabench: unexpected arguments %q\n", fs.Args())
		return 2
	case !valid:
		fmt.Fprintf(stderr, "sstabench: -workload must be one of %s, got %q\n", strings.Join(workloadNames(), ", "), *workload)
		return 2
	case !(*seconds > 0) || math.IsInf(*seconds, 0):
		fmt.Fprintf(stderr, "sstabench: -seconds must be positive, got %v\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "sstabench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "sstabench: %v\n", err)
		return 1
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *out, sc: fullScale, log: stderr}
	ok, err := benchmark(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "sstabench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// measure runs cfg's workload.
func measure(cfg runConfig) (*result, error) {
	if cfg.workload == wService {
		return runService(cfg)
	}
	return runSerial(cfg, workloads[cfg.workload])
}

// benchmark measures one workload and reports it: a
// "workload metric value unit" line per metric, the run record and (when
// traced) the span file under cfg.dir, and as the last line of stdout
// the JSON summary {"correct", "attempted", "failed", "metrics"}. It
// returns whether every correctness check passed.
func benchmark(cfg runConfig, stdout io.Writer) (bool, error) {
	res, err := measure(cfg)
	if err != nil {
		return false, err
	}
	rec := newRecord(cfg, res)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line := summaryLine{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]summaryValue)}
	for _, def := range defs {
		m, ok := rec.metric(def.Name)
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return false, fmt.Errorf("metric %s was not measured", def.Name)
		}
		line.Metrics[def.Name] = summaryValue{Value: m.Value, Unit: def.Unit}
		fmt.Fprintf(stdout, "%s %s %.6g %s\n", cfg.workload, def.Name, m.Value, def.Unit)
	}
	for _, c := range res.checks {
		status := "ok"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(cfg.log, "%s: check %s %s %s\n", cfg.workload, c.Name, status, c.Detail)
	}
	for _, n := range res.notes {
		fmt.Fprintf(cfg.log, "%s: %s %.6g %s\n", cfg.workload, n.Name, n.Value, n.Unit)
	}
	base := filepath.Join(cfg.dir, fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, btoi(cfg.trace)))
	if res.tr != nil {
		printSelfTimes(cfg.log, cfg.workload, rec.Layers)
		if err := res.tr.writeChrome(base + ".trace.json"); err != nil {
			return false, err
		}
	}
	if err := writeJSON(base+".record.json", rec); err != nil {
		return false, err
	}
	b, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(stdout, string(b))
	return line.Correct, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// summaryLine is the last line of stdout, the form the regression
// pipeline reads.
type summaryLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]summaryValue `json:"metrics"`
}

type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is the full account of one run, written to
// <out>/<workload>-seed<N>-trace<0|1>.record.json: host, correctness
// checks, and every metric with all its samples, so two commits'
// runs can be compared from files.
type runRecord struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Trace     bool           `json:"trace"`
	Host      hostInfo       `json:"host"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Checks    []check        `json:"checks"`
	Metrics   []metricRecord `json:"metrics"`
	Notes     []note         `json:"notes,omitempty"`
	Layers    []layerTime    `json:"layers,omitempty"`
}

type hostInfo struct {
	HostCPUs   int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
	Dirty      bool   `json:"dirty"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

type metricRecord struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Stats summary `json:"stats"`
}

func newRecord(cfg runConfig, res *result) *runRecord {
	bi := buildinfo.Collect("bench", "")
	rec := &runRecord{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host: hostInfo{
			HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: bi.GoVersion, Revision: bi.Revision, Dirty: bi.Dirty,
			OS: runtime.GOOS, Arch: runtime.GOARCH,
		},
		Correct: res.correct(), Attempted: res.attempted, Failed: res.failed,
		Checks: res.checks, Notes: res.notes,
	}
	addSamples := func(name, unit string, xs []float64) {
		s := summarize(xs)
		rec.Metrics = append(rec.Metrics, metricRecord{Name: name, Unit: unit, Value: s.Median, Stats: s})
	}
	e2e := map[string][]float64{
		"latency_ms":   res.latencyMS,
		"ops_per_s":    {res.opsPerS},
		"peak_heap_mb": {res.peakMB},
		"setup_s":      res.setupS,
	}
	for _, def := range endToEnd {
		addSamples(def.Name, def.Unit, e2e[def.Name])
	}
	if res.tr != nil {
		for _, def := range perLayer {
			addSamples(def.Name, def.Unit, res.tr.sampled(def.Name))
		}
		rec.Layers = res.tr.selfTimes()
	}
	return rec
}

func (r *runRecord) metric(name string) (metricRecord, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, m.Stats.N > 0
		}
	}
	return metricRecord{}, false
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
