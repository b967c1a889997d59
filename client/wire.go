// Package client is the typed Go client for the sstad service
// (cmd/sstad): submit analysis and optimization jobs over HTTP JSON,
// poll or long-poll them to completion, and decode the typed results.
//
// This file defines the wire types shared by the client and the server
// (internal/server imports them), so the two sides cannot drift.
package client

import (
	"encoding/json"
	"fmt"
	"time"
)

// Job operations accepted by POST /v1/jobs.
const (
	OpAnalyze    = "analyze"    // FULLSSTA moments + PDF + yield queries
	OpMonteCarlo = "montecarlo" // golden-reference sampling engine
	OpOptimize   = "optimize"   // a sizing backend (StatisticalGreedy by default)
	OpWNSSPath   = "wnsspath"   // worst negative statistical slack path
	OpWhatIf     = "whatif"     // batched candidate-sizing what-if scoring
)

// Priority classes accepted on JobRequest.Priority (empty = normal).
// Priority shapes admission under congestion — low-priority submissions
// are shed first as the queue fills — and, in cluster mode, the order in
// which pending work is handed to lease-holding workers.
const (
	PriorityHigh   = "high"
	PriorityNormal = "normal"
	PriorityLow    = "low"
)

// Netlist formats accepted on JobRequest.Format (empty = bench).
const (
	FormatBench   = "bench"   // ISCAS .bench netlist
	FormatVerilog = "verilog" // gate-level structural Verilog
)

// JobRequest is the body of POST /v1/jobs. Exactly one of Bench (an
// inline netlist) or Generate (a built-in benchmark name) selects the
// design; the remaining fields parameterize the operation.
type JobRequest struct {
	Op       string `json:"op"`
	Bench    string `json:"bench,omitempty"`
	Generate string `json:"generate,omitempty"`
	// Name labels an inline netlist (defaults to "design").
	Name string `json:"name,omitempty"`
	// Format names the syntax of the inline netlist in Bench: "bench"
	// (ISCAS .bench, the default) or "verilog" (gate-level structural
	// Verilog). Submissions are parsed under the server's ingestion
	// budgets; an over-budget netlist is rejected 413, a malformed one
	// 400 with positioned diagnostics.
	Format string `json:"format,omitempty"`
	// Liberty optionally carries an inline Liberty library (the subset
	// written by the facade's SaveLiberty) to map the inline netlist
	// onto instead of the default library. It does not combine with
	// Generate: built-ins always use the default library.
	Liberty string `json:"liberty,omitempty"`

	// Lambda is the sigma weight for optimize/wnsspath (the paper
	// evaluates 3 and 9).
	Lambda float64 `json:"lambda,omitempty"`
	// Samples and Seed drive the Monte-Carlo engine.
	Samples int   `json:"samples,omitempty"`
	Seed    int64 `json:"seed,omitempty"`
	// Workers, PDFPoints and MaxIters mirror repro.RunOptions. Workers
	// changes speed only, so results (and the server's result cache) do
	// not depend on it.
	Workers   int `json:"workers,omitempty"`
	PDFPoints int `json:"pdf_points,omitempty"`
	MaxIters  int `json:"max_iters,omitempty"`
	// SlackFrac is the cost slack of optimize's "recoverarea" backend
	// (0 means 0.01, repro.DefaultSlackFrac); every other op and backend
	// ignores it.
	SlackFrac float64 `json:"slack_frac,omitempty"`
	// Optimizer selects the sizing backend for optimize jobs: one of the
	// registered names ("statgreedy", "sensitivity", "meandelay",
	// "recoverarea"); empty means "statgreedy". Unknown names are
	// rejected at submission with HTTP 400 and a machine-readable
	// diagnostic (check "optimizer"). The name is normalized into the
	// result-memo key, so an explicit "statgreedy" and the empty default
	// share cached results while distinct backends never collide. Seed
	// keys the sensitivity backend's deterministic tie-breaking.
	Optimizer string `json:"optimizer,omitempty"`
	// YieldPeriods asks analyze/montecarlo for the yield at each clock
	// period T (ps); TargetYields asks for the smallest period reaching
	// each target yield.
	YieldPeriods []float64 `json:"yield_periods,omitempty"`
	TargetYields []float64 `json:"target_yields,omitempty"`
	// TimeoutSec, when > 0, sets the job's deadline.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// Candidates parameterizes the whatif op: each candidate is a list
	// of hypothetical gate resizes scored as one sizing. Reports come
	// back in candidate order, bit-identical to scoring each candidate
	// alone (cluster mode shards large candidate sets across workers).
	Candidates [][]Edit `json:"candidates,omitempty"`
	// Priority is the job's admission class: "high", "normal" (the
	// default when empty) or "low". See the Priority constants.
	Priority string `json:"priority,omitempty"`
}

// Edit names one hypothetical gate resize inside a whatif candidate.
type Edit struct {
	Gate string `json:"gate"`
	Size int    `json:"size"`
}

// JobStatus is the representation of a job returned by the submit, poll
// and stream endpoints.
type JobStatus struct {
	ID    string `json:"id"`
	Op    string `json:"op"`
	State string `json:"state"` // queued | running | done | failed | cancelled
	Error string `json:"error,omitempty"`
	// DesignHash is the content address (SHA-256 of the canonical
	// netlist) the job's design resolved to.
	DesignHash string `json:"design_hash,omitempty"`
	// CacheHit is true when the result was served from the design
	// cache's (design, options) memo without re-running the engines.
	CacheHit bool      `json:"cache_hit,omitempty"`
	Created  time.Time `json:"created"`
	// Attempt is the 1-based execution attempt (> 1 after crash
	// recovery re-ran the job); 0 for jobs that have not started.
	Attempt int `json:"attempt,omitempty"`
	// Progress is the job's latest heartbeat while running: the
	// optimizers report their outer-iteration position through it.
	Progress *JobProgress `json:"progress,omitempty"`
	// Started and Finished are the zero time until the job leaves the
	// queue / reaches a terminal state.
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	// Result holds the op-specific payload once State is "done"; decode
	// it with the typed accessors below.
	Result json.RawMessage `json:"result,omitempty"`
}

// JobProgress is a running job's most recent heartbeat.
type JobProgress struct {
	// Iter is the next outer iteration of the optimizer (analysis ops
	// report coarser milestones).
	Iter int `json:"iter"`
	// Cost is the circuit cost at the heartbeat, in ps.
	Cost float64 `json:"cost"`
	// Updated is when the heartbeat was recorded (server clock).
	Updated time.Time `json:"updated"`
}

// Terminal reports whether the job can no longer change state.
func (s *JobStatus) Terminal() bool {
	switch s.State {
	case "done", "failed", "cancelled":
		return true
	}
	return false
}

// YieldPoint is one answer to a YieldPeriods query.
type YieldPoint struct {
	Period float64 `json:"period"`
	Yield  float64 `json:"yield"`
}

// PeriodPoint is one answer to a TargetYields query.
type PeriodPoint struct {
	TargetYield float64 `json:"target_yield"`
	Period      float64 `json:"period"`
}

// AnalyzeResult is the payload of analyze and montecarlo jobs.
type AnalyzeResult struct {
	Mean         float64       `json:"mean"`
	Sigma        float64       `json:"sigma"`
	NominalDelay float64       `json:"nominal_delay"`
	PDFX         []float64     `json:"pdf_x,omitempty"`
	PDFY         []float64     `json:"pdf_y,omitempty"`
	Yields       []YieldPoint  `json:"yields,omitempty"`
	Periods      []PeriodPoint `json:"periods,omitempty"`
}

// OptimizeResult is the payload of optimize jobs (mirrors
// repro.OptResult; Runtime is seconds).
type OptimizeResult struct {
	MeanBefore  float64 `json:"mean_before"`
	MeanAfter   float64 `json:"mean_after"`
	SigmaBefore float64 `json:"sigma_before"`
	SigmaAfter  float64 `json:"sigma_after"`
	AreaBefore  float64 `json:"area_before"`
	AreaAfter   float64 `json:"area_after"`
	Iterations  int     `json:"iterations"`
	StoppedBy   string  `json:"stopped_by"`
	RuntimeSec  float64 `json:"runtime_sec"`
	// AnalysisTimeSec is the share of RuntimeSec spent in whole-circuit
	// timing analysis (the initial analysis, incremental repairs and
	// batched what-if passes).
	AnalysisTimeSec float64 `json:"analysis_time_sec,omitempty"`
	// Evals counts the timing evaluations the run requested and
	// NodeEvals the per-gate evaluations behind them: work-done metrics
	// (excluded from the bit-exactness contract, like the timing
	// fields).
	Evals     int64 `json:"evals,omitempty"`
	NodeEvals int64 `json:"node_evals,omitempty"`
	// Sizes is the optimized sizing vector (one library size index per
	// gate, in gate order): the canonical equality oracle for comparing
	// two runs — a resumed-after-crash optimization matches its
	// uninterrupted counterpart iff these vectors are identical.
	Sizes []int `json:"sizes,omitempty"`
}

// WhatIfReport is one candidate's score inside a WhatIfResult,
// mirroring repro.WhatIfReport on the wire.
type WhatIfReport struct {
	MeanBefore    float64 `json:"mean_before"`
	SigmaBefore   float64 `json:"sigma_before"`
	MeanAfter     float64 `json:"mean_after"`
	SigmaAfter    float64 `json:"sigma_after"`
	NodesRepaired int64   `json:"nodes_repaired"`
	Gates         int     `json:"gates"`
}

// WhatIfResult is the payload of whatif jobs: one report per candidate,
// in request order.
type WhatIfResult struct {
	Reports []WhatIfReport `json:"reports"`
}

// PathResult is the payload of wnsspath jobs: gate names from inputs to
// the worst output.
type PathResult struct {
	Gates []string `json:"gates"`
}

func (s *JobStatus) decode(op string, v any) error {
	if s.State != "done" {
		return fmt.Errorf("client: job %s is %s, not done (err: %s)", s.ID, s.State, s.Error)
	}
	if s.Op != op {
		return fmt.Errorf("client: job %s is a %s job, not %s", s.ID, s.Op, op)
	}
	return json.Unmarshal(s.Result, v)
}

// Analyze decodes the payload of a completed analyze job.
func (s *JobStatus) Analyze() (*AnalyzeResult, error) {
	var r AnalyzeResult
	if err := s.decode(OpAnalyze, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// MonteCarlo decodes the payload of a completed montecarlo job.
func (s *JobStatus) MonteCarlo() (*AnalyzeResult, error) {
	var r AnalyzeResult
	if err := s.decode(OpMonteCarlo, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// Optimize decodes the payload of a completed optimize job.
func (s *JobStatus) Optimize() (*OptimizeResult, error) {
	var r OptimizeResult
	if err := s.decode(OpOptimize, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// WNSSPath decodes the payload of a completed wnsspath job.
func (s *JobStatus) WNSSPath() (*PathResult, error) {
	var r PathResult
	if err := s.decode(OpWNSSPath, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// WhatIf decodes the payload of a completed whatif job.
func (s *JobStatus) WhatIf() (*WhatIfResult, error) {
	var r WhatIfResult
	if err := s.decode(OpWhatIf, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// JobList is the paginated response of GET /v1/jobs: one page of
// retained jobs, newest first, plus the cursor for the next page (empty
// when this page is the last).
type JobList struct {
	Jobs []JobStatus `json:"jobs"`
	// NextCursor, when non-empty, is passed as ?cursor= to fetch the
	// page of strictly older jobs.
	NextCursor string `json:"next_cursor,omitempty"`
}

// Healthz is the body of GET /healthz: liveness, queue depth, and the
// node's build identity (so multi-node deployments can tell replicas —
// and mid-rollout version skew — apart).
type Healthz struct {
	Status      string `json:"status"`
	JobsQueued  int    `json:"jobs_queued"`
	JobsRunning int    `json:"jobs_running"`
	Role        string `json:"role,omitempty"`
	Node        string `json:"node,omitempty"`
	Revision    string `json:"revision,omitempty"`
	GoVersion   string `json:"go_version,omitempty"`
}

// ErrorBody is the JSON error envelope every non-2xx response carries.
// Lint rejections additionally carry the structured diagnostics that
// caused them.
type ErrorBody struct {
	Error       string       `json:"error"`
	Diagnostics []Diagnostic `json:"diagnostics,omitempty"`
}

// Diagnostic is one structural-lint or ingestion finding, mirroring
// internal/circuitlint.Diagnostic (and internal/ingest.Diagnostic) on
// the wire: the check that fired ("cycle", "undriven", "budget",
// "syntax", ...), its severity ("error" or "warning"), the offending
// gate or net name when one is identifiable, the 1-based source line
// and column (column only from the streaming parsers), and a
// human-readable message.
type Diagnostic struct {
	Check    string `json:"check"`
	Severity string `json:"severity"`
	Gate     string `json:"gate,omitempty"`
	Line     int    `json:"line,omitempty"`
	Col      int    `json:"col,omitempty"`
	Msg      string `json:"msg"`
}
