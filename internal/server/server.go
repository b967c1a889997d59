// Package server is the HTTP layer of sstad, the long-running
// SSTA/optimization service: it exposes the module's public API
// (Analyze, MonteCarlo, OptimizeStatistical, RecoverArea, WNSSPath,
// yield queries) as submit/poll/stream job endpoints, backed by the
// bounded queue of internal/jobs and the content-addressed store of
// internal/designcache.
//
// Endpoints:
//
//	POST   /v1/jobs             submit a job (client.JobRequest), 202 + status
//	GET    /v1/jobs             list retained jobs, newest first (?limit= + ?cursor= paginate)
//	GET    /v1/jobs/{id}        poll a job; ?wait=30s long-polls
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/stream server-sent events until terminal
//	GET    /healthz             liveness + queue depth + build identity
//	GET    /metrics             Prometheus text exposition
//
// With Config.Cluster set the node becomes a coordinator: jobs are not
// executed in-process but fanned out to worker replicas through the
// lease endpoints of internal/cluster (POST /v1/leases and friends, see
// coordinator.go), with Monte-Carlo trial ranges and what-if candidate
// sets sharded across workers and merged bit-exactly. Submission is
// additionally shaped by per-tenant token buckets and priority classes
// (admission.go).
//
// Wire types live in the public client package so the two sides cannot
// drift; this package converts between them and the internal engines.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/client"
	"repro/internal/buildinfo"
	"repro/internal/cells"
	"repro/internal/circuitlint"
	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/designcache"
	"repro/internal/faultinject"
	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/oprun"
)

// Config tunes the service. The zero value is production-reasonable:
// see the field comments for the defaults applied by New.
type Config struct {
	// JobWorkers is how many jobs run concurrently (0 = one per CPU).
	// Each job can itself fan out via the engines' Workers option, so
	// hosts serving large designs usually want this small.
	JobWorkers int
	// QueueCapacity bounds the pending queue (0 = 64); beyond it,
	// submits are rejected with HTTP 429.
	QueueCapacity int
	// CacheDesigns / CacheResults bound the design cache LRUs
	// (0 = designcache defaults).
	CacheDesigns, CacheResults int
	// Retention is how long finished jobs stay pollable (0 = 15 min).
	Retention time.Duration
	// JobTimeout is the default per-job deadline (0 = none).
	JobTimeout time.Duration
	// MaxBodyBytes bounds a submit body (0 = 32 MiB) — netlists are
	// text; anything bigger is a client bug.
	MaxBodyBytes int64
	// Ingest bounds the parsing of inline netlists and libraries on
	// submit (zero fields select the production defaults in
	// internal/ingest). A submission that trips one of these budgets is
	// rejected 413; a malformed one 400 with positioned diagnostics.
	Ingest repro.IngestLimits
	// MaxWait caps the long-poll ?wait parameter (0 = 60s).
	MaxWait time.Duration
	// JournalPath, when non-empty, enables the durable job journal
	// (internal/journal): every admission, attempt and outcome is
	// fsynced to this file, and New replays it on startup — terminal
	// jobs stay pollable, interrupted jobs are re-enqueued (optimizers
	// resume from their latest checkpoint).
	JournalPath string
	// MaxAttempts bounds how many executions a journaled job may begin
	// across crash recoveries before it is failed instead of re-run
	// (0 = 3). It does not limit anything when the journal is off.
	MaxAttempts int
	// StallTimeout, when > 0, arms the heartbeat watchdog for optimizer
	// jobs (optimize/recover, the ops that report checkpoint progress):
	// a running job silent for longer is failed with jobs.ErrStalled.
	StallTimeout time.Duration
	// NoSync skips the per-append journal fsync. Chaos tests (and hosts
	// explicitly trading durability for throughput) only.
	NoSync bool
	// Inject is the deterministic fault-injection hook threaded into
	// the journal ("journal.append.write", "journal.append.sync") and
	// the optimizer checkpoint path ("server.checkpoint", used with
	// Delay plans to stretch runs for chaos tests); nil disables
	// injection. In cluster mode the checkpoint site sits on the
	// coordinator's heartbeat handler — workers stream checkpoints
	// synchronously, so delaying it stretches their iterations too.
	Inject *faultinject.Injector

	// Cluster turns this node into a coordinator: jobs are dispatched to
	// worker replicas through the lease endpoints instead of executing
	// in-process. JobWorkers then bounds concurrent DISPATCHES (cheap
	// waiting, not engine work) and should be sized generously.
	Cluster bool
	// LeaseTTL is how long a worker lease survives without a heartbeat
	// before its unit is re-enqueued (0 = 10s).
	LeaseTTL time.Duration
	// LeaseScanInterval is the expiry sweep period (0 = LeaseTTL/4).
	LeaseScanInterval time.Duration
	// MaxLeaseAttempts caps leases burned per work unit before the job
	// fails (0 = 5).
	MaxLeaseAttempts int
	// MCShardTrials is the Monte-Carlo trials-per-shard target: jobs
	// larger than this split into trial-range units (0 = 20000).
	MCShardTrials int
	// MaxMCShards caps a single job's Monte-Carlo fan-out (0 = 8).
	MaxMCShards int
	// WhatIfShardSize is the candidates-per-shard target for whatif jobs
	// (0 = 64).
	WhatIfShardSize int

	// TenantRate, when > 0, arms per-tenant admission control: each
	// tenant (X-Tenant header; empty = "default") refills at TenantRate
	// submits/second up to TenantBurst (0 = max(2, ceil(rate))), and
	// submissions beyond that are rejected 429 with Retry-After.
	TenantRate  float64
	TenantBurst int

	// Role and Node label this process in /healthz, /metrics and the
	// build-info metric ("single", "coordinator", "worker"; node is a
	// replica name). Empty values default to "single" / the process's
	// best guess at a stable name.
	Role, Node string
}

func (c Config) maxBody() int64 {
	if c.MaxBodyBytes <= 0 {
		return 32 << 20
	}
	return c.MaxBodyBytes
}

func (c Config) maxWait() time.Duration {
	if c.MaxWait <= 0 {
		return 60 * time.Second
	}
	return c.MaxWait
}

func (c Config) maxAttempts() int {
	if c.MaxAttempts <= 0 {
		return 3
	}
	return c.MaxAttempts
}

func (c Config) queueCapacity() int {
	if c.QueueCapacity <= 0 {
		return 64
	}
	return c.QueueCapacity
}

func (c Config) leaseTTL() time.Duration {
	if c.LeaseTTL <= 0 {
		return 10 * time.Second
	}
	return c.LeaseTTL
}

func (c Config) mcShardTrials() int {
	if c.MCShardTrials <= 0 {
		return 20000
	}
	return c.MCShardTrials
}

func (c Config) maxMCShards() int {
	if c.MaxMCShards <= 0 {
		return 8
	}
	return c.MaxMCShards
}

func (c Config) whatIfShardSize() int {
	if c.WhatIfShardSize <= 0 {
		return 64
	}
	return c.WhatIfShardSize
}

func (c Config) role() string {
	if c.Role == "" {
		if c.Cluster {
			return "coordinator"
		}
		return "single"
	}
	return c.Role
}

// jobMeta is the request-side information the queue does not track.
type jobMeta struct {
	op      string
	hash    string
	idemKey string
	attempt int // 1-based execution attempts begun (across recoveries)
}

// outcome wraps a job payload with its cache provenance.
type outcome struct {
	payload  any
	cacheHit bool
}

// Server wires the queue, the cache and the HTTP handlers. Build with
// New, serve via Handler, stop with Shutdown.
type Server struct {
	cfg   Config
	queue *jobs.Queue
	cache *designcache.Cache
	met   *metrics
	mux   *http.ServeMux
	jnl   *journal.Journal // nil when durability is off
	pool  *cluster.Pool    // nil outside cluster (coordinator) mode
	adm   *admission
	build buildinfo.Info

	metaMu sync.Mutex
	meta   map[string]jobMeta
	// idem maps Idempotency-Key -> job ID so a retried submit (same
	// logical request, response lost) returns the original job.
	idem map[string]string
	// historic holds terminal jobs known only from the journal — their
	// queue entries did not survive the restart, but clients waiting on
	// them across it still get the real outcome.
	historic map[string]client.JobStatus

	journalAppends  atomic.Uint64
	journalErrors   atomic.Uint64
	jobsRecovered   atomic.Uint64
	recoveryDropped atomic.Uint64
	idemHits        atomic.Uint64
}

// New builds a ready-to-serve Server. With Config.JournalPath set it
// opens (creating if absent) the journal, replays it, and recovers
// interrupted work before returning — so by the time the listener is
// up, every journaled job is either re-enqueued or terminally resolved.
func New(cfg Config) (*Server, error) {
	s := &Server{
		cfg:      cfg,
		cache:    designcache.New(cfg.CacheDesigns, cfg.CacheResults),
		met:      newMetrics(),
		mux:      http.NewServeMux(),
		meta:     make(map[string]jobMeta),
		idem:     make(map[string]string),
		historic: make(map[string]client.JobStatus),
		adm:      newAdmission(cfg.TenantRate, cfg.TenantBurst),
		build:    buildinfo.Collect(cfg.role(), cfg.Node),
	}
	// The pool must exist before the queue: recovered jobs can start
	// dispatching the moment they are re-enqueued.
	if cfg.Cluster {
		s.pool = cluster.NewPool(cluster.PoolOptions{
			TTL:             cfg.leaseTTL(),
			ScanInterval:    cfg.LeaseScanInterval,
			MaxUnitAttempts: cfg.MaxLeaseAttempts,
		})
	}
	var recs []journal.Record
	if cfg.JournalPath != "" {
		jnl, rs, err := journal.Open(cfg.JournalPath, journal.Options{NoSync: cfg.NoSync, Inject: cfg.Inject})
		if err != nil {
			return nil, err
		}
		s.jnl, recs = jnl, rs
	}
	s.queue = jobs.New(jobs.Options{
		Workers:        cfg.JobWorkers,
		Capacity:       cfg.QueueCapacity,
		Retention:      cfg.Retention,
		DefaultTimeout: cfg.JobTimeout,
		OnTransition:   s.onTransition,
	})
	if s.jnl != nil {
		s.recoverJobs(recs)
	}
	s.route("POST /v1/jobs", "submit", s.handleSubmit)
	s.route("GET /v1/jobs", "list", s.handleList)
	s.route("GET /v1/jobs/{id}", "poll", s.handleGet)
	s.route("DELETE /v1/jobs/{id}", "cancel", s.handleCancel)
	s.route("GET /v1/jobs/{id}/stream", "stream", s.handleStream)
	s.route("GET /healthz", "healthz", s.handleHealthz)
	s.route("GET /metrics", "metrics", s.handleMetrics)
	if s.pool != nil {
		s.route("POST /v1/leases", "lease_acquire", s.handleLeaseAcquire)
		s.route("POST /v1/leases/{id}/heartbeat", "lease_heartbeat", s.handleLeaseHeartbeat)
		s.route("POST /v1/leases/{id}/complete", "lease_complete", s.handleLeaseComplete)
		s.route("GET /v1/designs/{hash}", "design_get", s.handleDesignGet)
	}
	return s, nil
}

// Handler returns the root handler (also usable under httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown stops the job queue — running jobs are cancelled through
// their contexts and the workers drained (bounded by ctx) — then closes
// the journal. Interrupted jobs are deliberately NOT journaled as
// terminal: the next startup re-enqueues them.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.queue.Shutdown(ctx)
	if s.pool != nil {
		// After the queue drains: cancelled dispatches have already
		// withdrawn their units, so the pool only owes its scanner.
		s.pool.Close()
	}
	if s.jnl != nil {
		if cerr := s.jnl.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// onTransition is the queue's durability hook: every start and terminal
// transition is written through to the journal so a restart can
// reconstruct each job's fate. It also maintains the attempt counter
// surfaced on job statuses (journal on or off).
func (s *Server) onTransition(sn jobs.Snapshot) {
	switch sn.State {
	case jobs.StateRunning:
		s.metaMu.Lock()
		m := s.meta[sn.ID]
		m.attempt++
		attempt := m.attempt
		s.meta[sn.ID] = m
		s.metaMu.Unlock()
		s.journalAppend(journal.Record{Type: journal.TypeStart, Job: sn.ID, Attempt: attempt})
	case jobs.StateDone:
		rec := journal.Record{Type: journal.TypeDone, Job: sn.ID}
		if out, ok := sn.Result.(outcome); ok {
			rec.CacheHit = out.cacheHit
			if b, err := json.Marshal(out.payload); err == nil {
				rec.Result = b
			}
		}
		s.journalAppend(rec)
	case jobs.StateFailed:
		s.journalAppend(journal.Record{Type: journal.TypeFailed, Job: sn.ID, Error: errText(sn.Err)})
	case jobs.StateCancelled:
		s.journalAppend(journal.Record{Type: journal.TypeCancelled, Job: sn.ID, Error: errText(sn.Err)})
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// journalAppend writes a record, degrading (with an error counter, not
// an outage) when the journal is off or the append fails. The one write
// whose failure must abort its operation — the admission record — calls
// the journal directly from handleSubmit instead.
func (s *Server) journalAppend(rec journal.Record) {
	if s.jnl == nil {
		return
	}
	if err := s.jnl.Append(rec); err != nil {
		s.journalErrors.Add(1)
		return
	}
	s.journalAppends.Add(1)
}

// stallFor returns the heartbeat deadline to arm for an op: only the
// optimizers report progress, so only they are watched.
func (s *Server) stallFor(op string) time.Duration {
	if op == client.OpOptimize || op == client.OpRecover {
		return s.cfg.StallTimeout
	}
	return 0
}

// route installs a handler wrapped with latency/status instrumentation
// under the endpoint label (the metrics dimension — stable even though
// paths carry IDs).
func (s *Server) route(pattern, endpoint string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.met.observeRequest(endpoint, rec.code, time.Since(start))
	})
}

type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, client.ErrorBody{Error: fmt.Sprintf(format, args...)})
}

// writeLintError rejects a submission whose netlist failed structural
// lint: HTTP 400 with every diagnostic (errors and warnings) mirrored
// into the machine-readable wire form.
func writeLintError(w http.ResponseWriter, diags []circuitlint.Diagnostic) {
	wire := make([]client.Diagnostic, len(diags))
	for i, d := range diags {
		wire[i] = client.Diagnostic{
			Check:    d.Check,
			Severity: d.Severity,
			Gate:     d.Gate,
			Line:     d.Line,
			Col:      d.Col,
			Msg:      d.Msg,
		}
	}
	nerr := len(circuitlint.Errors(diags))
	writeJSON(w, http.StatusBadRequest, client.ErrorBody{
		Error:       fmt.Sprintf("design fails lint: %d error(s)", nerr),
		Diagnostics: wire,
	})
}

// lintError carries a full circuitlint diagnosis out of resolveDesign so
// the submit handler can answer with every structural problem at once.
type lintError struct{ diags []circuitlint.Diagnostic }

func (e *lintError) Error() string {
	return fmt.Sprintf("design fails lint: %d error(s)", len(circuitlint.Errors(e.diags)))
}

// writeResolveError maps a design-resolution failure onto the wire
// contract: structural lint and malformed input answer 400 with the
// positioned diagnostic list; an ingestion budget violation (input too
// big / too deep / too many elements) answers 413, mirroring the raw
// body-size limit; everything else is a plain 400.
func writeResolveError(w http.ResponseWriter, err error) {
	var le *lintError
	if errors.As(err, &le) {
		writeLintError(w, le.diags)
		return
	}
	diags := repro.Diagnostics(err)
	if len(diags) == 0 && !repro.IsBudgetError(err) {
		writeError(w, http.StatusBadRequest, "resolve design: %v", err)
		return
	}
	code := http.StatusBadRequest
	if repro.IsBudgetError(err) {
		code = http.StatusRequestEntityTooLarge
	}
	wire := make([]client.Diagnostic, len(diags))
	for i, d := range diags {
		wire[i] = client.Diagnostic{
			Check:    d.Check,
			Severity: d.Severity,
			Gate:     d.Gate,
			Line:     d.Line,
			Col:      d.Col,
			Msg:      d.Msg,
		}
	}
	writeJSON(w, code, client.ErrorBody{
		Error:       fmt.Sprintf("resolve design: %v", err),
		Diagnostics: wire,
	})
}

// resolveDesign parses, lints and interns the request's design under the
// server's ingestion budgets (with ctx threaded into the parse so a
// dropped connection stops a large load mid-file). For .bench input the
// structural lint runs concurrently with the parse — the two walk the
// same text independently — and a lint failure wins the rejection so the
// client sees the complete diagnosis, not the first parse error.
func (s *Server) resolveDesign(ctx context.Context, req *client.JobRequest) (*repro.Design, string, error) {
	if req.Bench == "" {
		return s.cache.Generate(req.Generate)
	}
	name := req.Name
	if name == "" {
		name = "design"
	}
	lim := s.cfg.Ingest
	lim.Ctx = ctx
	var lib *cells.Library
	if req.Liberty != "" {
		l, err := repro.LoadLibertyOpts(strings.NewReader(req.Liberty), lim)
		if err != nil {
			return nil, "", fmt.Errorf("liberty: %w", err)
		}
		lib = l
	}
	if req.Format == client.FormatVerilog {
		var (
			d0  *repro.Design
			err error
		)
		if lib != nil {
			d0, err = repro.LoadVerilogWithLibrary(strings.NewReader(req.Bench), name, lib, lim)
		} else {
			d0, err = repro.LoadVerilogOpts(strings.NewReader(req.Bench), name, lim)
		}
		if err != nil {
			return nil, "", err
		}
		return s.cache.Intern(d0)
	}
	lintCh := make(chan []circuitlint.Diagnostic, 1)
	text := req.Bench
	go func() { lintCh <- circuitlint.LintText(text, name) }()
	var (
		d    *repro.Design
		hash string
		perr error
	)
	if lib != nil {
		d0, err := repro.LoadBenchWithLibrary(strings.NewReader(req.Bench), name, lib)
		if err != nil {
			perr = err
		} else {
			d, hash, perr = s.cache.Intern(d0)
		}
	} else {
		d0, err := repro.LoadBenchCtx(ctx, strings.NewReader(req.Bench), name)
		if err != nil {
			perr = err
		} else {
			d, hash, perr = s.cache.Intern(d0)
		}
	}
	if diags := <-lintCh; circuitlint.HasErrors(diags) {
		return nil, "", &lintError{diags: diags}
	}
	if perr != nil {
		return nil, "", perr
	}
	return d, hash, nil
}

// validOps is the accepted operation set.
var validOps = map[string]bool{
	client.OpAnalyze:    true,
	client.OpMonteCarlo: true,
	client.OpOptimize:   true,
	client.OpRecover:    true,
	client.OpWNSSPath:   true,
	client.OpWhatIf:     true,
}

// validate rejects malformed requests before anything is enqueued.
func validate(req *client.JobRequest) error {
	if !validOps[req.Op] {
		return fmt.Errorf("unknown op %q (want analyze|montecarlo|optimize|recover|wnsspath|whatif)", req.Op)
	}
	switch req.Priority {
	case "", client.PriorityHigh, client.PriorityNormal, client.PriorityLow:
	default:
		return fmt.Errorf("unknown priority %q (want high|normal|low)", req.Priority)
	}
	if req.Op == client.OpWhatIf {
		if len(req.Candidates) == 0 {
			return errors.New("whatif needs at least one candidate")
		}
		for i, cand := range req.Candidates {
			if len(cand) == 0 {
				return fmt.Errorf("whatif candidate %d is empty", i)
			}
		}
	} else if len(req.Candidates) > 0 {
		return fmt.Errorf("candidates only apply to the whatif op, not %q", req.Op)
	}
	if (req.Bench == "") == (req.Generate == "") {
		return errors.New("pass exactly one of bench (inline netlist) or generate (built-in name)")
	}
	switch req.Format {
	case "", client.FormatBench, client.FormatVerilog:
	default:
		return fmt.Errorf("unknown format %q (want bench|verilog)", req.Format)
	}
	if req.Format != "" && req.Bench == "" {
		return errors.New("format applies to an inline netlist (bench), not generate")
	}
	if req.Liberty != "" && req.Generate != "" {
		return errors.New("liberty does not combine with generate (built-ins use the default library)")
	}
	if err := cliutil.CheckWorkers(req.Workers); err != nil {
		return err
	}
	if req.Lambda < 0 {
		return fmt.Errorf("lambda must be >= 0, got %g", req.Lambda)
	}
	if req.Op == client.OpMonteCarlo && req.Samples <= 0 {
		return fmt.Errorf("montecarlo needs samples > 0, got %d", req.Samples)
	}
	if req.PDFPoints < 0 || req.MaxIters < 0 {
		return errors.New("pdf_points and max_iters must be >= 0")
	}
	if req.SlackFrac < 0 {
		return fmt.Errorf("slack_frac must be >= 0, got %g", req.SlackFrac)
	}
	if req.Optimizer != "" && req.Op != client.OpOptimize {
		return fmt.Errorf("optimizer only applies to the optimize op, not %q", req.Op)
	}
	for _, y := range req.TargetYields {
		if y <= 0 || y >= 1 {
			return fmt.Errorf("target yields must be in (0, 1), got %g", y)
		}
	}
	// CheckSeconds also rejects NaN/Inf, which a plain "< 0" comparison
	// would silently accept (NaN compares false to everything).
	if err := cliutil.CheckSeconds("timeout_sec", req.TimeoutSec); err != nil {
		return err
	}
	return nil
}

// optsKey canonicalizes the option-relevant part of a request into the
// result-memo key: the netlist and its display name are identity (the
// design hash covers them), everything else is options.
func optsKey(req client.JobRequest) string {
	req.Bench, req.Generate, req.Name = "", "", ""
	// Format is how the netlist was written down, not what it is: the
	// design hash covers the parsed content. The library text is design
	// identity too — HashDesign folds a Liberty fingerprint into the
	// hash, so two submissions differing only in library land on two
	// design entries, not two option keys.
	req.Format, req.Liberty = "", ""
	// Workers changes speed, never answers: every engine and optimizer
	// is bit-identical at any worker count, so a cached result serves
	// any worker count (only the advisory runtime fields could differ).
	req.Workers = 0
	// Priority orders scheduling, never results.
	req.Priority = ""
	// The backend name IS results-relevant for optimize jobs: normalize
	// the empty default to its canonical spelling, so the default and an
	// explicit "statgreedy" share one memo entry while distinct backends
	// can never collide. Other ops ignore the field entirely.
	if req.Op == client.OpOptimize {
		if req.Optimizer == "" {
			req.Optimizer = repro.DefaultOptimizer
		}
	} else {
		req.Optimizer = ""
	}
	b, _ := json.Marshal(req)
	return string(b)
}

// validateOptimizer checks an optimize request's backend name against
// the registry, returning the machine-readable diagnostic for the 400
// envelope when the name is unknown (nil = valid). Mirrors the lint
// rejection path: callers get the offending check by name instead of
// parsing an error string.
func validateOptimizer(req *client.JobRequest) *client.Diagnostic {
	if req.Optimizer == "" {
		return nil
	}
	names := repro.Optimizers()
	for _, n := range names {
		if n == req.Optimizer {
			return nil
		}
	}
	return &client.Diagnostic{
		Check:    "optimizer",
		Severity: "error",
		Msg:      fmt.Sprintf("unknown optimizer %q (want one of %s)", req.Optimizer, strings.Join(names, "|")),
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.maxBody()+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if int64(len(body)) > s.cfg.maxBody() {
		writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", s.cfg.maxBody())
		return
	}
	var req client.JobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if err := validate(&req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if d := validateOptimizer(&req); d != nil {
		writeJSON(w, http.StatusBadRequest, client.ErrorBody{
			Error:       d.Msg,
			Diagnostics: []client.Diagnostic{*d},
		})
		return
	}

	// An Idempotency-Key we have already admitted means this submit is
	// a retry of one whose response was lost: return the original job
	// instead of enqueuing a duplicate. Retries resolve before admission
	// control — they are not new work and must not burn quota.
	idemKey := r.Header.Get("Idempotency-Key")
	if idemKey != "" {
		if st, ok := s.idempotentHit(idemKey); ok {
			s.idemHits.Add(1)
			writeJSON(w, http.StatusOK, st)
			return
		}
	}

	// Per-tenant admission: the token bucket throttles chatty tenants;
	// the priority shed sacrifices low classes first as the queue fills.
	tenant := tenantOf(r)
	if retryAfter, ok := s.adm.allow(tenant); !ok {
		s.met.jobThrottled(tenant, "quota")
		w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
		writeError(w, http.StatusTooManyRequests, "tenant %q over submit quota", tenant)
		return
	}
	if queued, _ := s.queue.Depth(); shedPriority(req.Priority, queued, s.cfg.queueCapacity()) {
		s.met.jobThrottled(tenant, "shed")
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"queue congested: %s-priority submissions are being shed", priorityOrNormal(req.Priority))
		return
	}

	// Resolve (and intern) the design now so malformed netlists fail
	// the submit, not the job. Parsing runs under the server's ingestion
	// budgets with the request context threaded in, so an over-budget
	// upload answers 413 and a dropped connection stops the load.
	d, hash, err := s.resolveDesign(r.Context(), &req)
	if err != nil {
		writeResolveError(w, err)
		return
	}

	// Journal-first admission: the ID is reserved up front, the submit
	// record fsynced, and only then is the job enqueued — so a crash
	// between the two leaves a journaled job recovery re-enqueues, never
	// an acknowledged job the journal has no record of.
	id := s.queue.NewID()
	if s.jnl != nil {
		rec := journal.Record{
			Type: journal.TypeSubmit, Job: id,
			Op: req.Op, Hash: hash, IdemKey: idemKey, Request: json.RawMessage(body),
		}
		if err := s.jnl.Append(rec); err != nil {
			// Durability is part of the submit contract: an admission we
			// cannot journal is an admission we must not acknowledge.
			s.journalErrors.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "journal admission: %v", err)
			return
		}
		s.journalAppends.Add(1)
	}

	fn := s.jobFn(id, req, d, hash, optsKey(req), nil)
	var timeout time.Duration
	if req.TimeoutSec > 0 {
		timeout = time.Duration(req.TimeoutSec * float64(time.Second))
	}
	_, err = s.queue.SubmitOpts(s.completionCounted(fn), jobs.SubmitOptions{
		ID: id, Timeout: timeout, StallTimeout: s.stallFor(req.Op),
	})
	if err != nil {
		// The admission record must not outlive the rejection, or replay
		// would resurrect a job the client was told did not enqueue.
		s.journalAppend(journal.Record{Type: journal.TypeCancelled, Job: id,
			Error: "submit rejected: " + err.Error()})
		code := http.StatusServiceUnavailable
		if errors.Is(err, jobs.ErrFull) {
			code = http.StatusTooManyRequests
		}
		w.Header().Set("Retry-After", "1")
		writeError(w, code, "%v", err)
		return
	}
	s.met.jobSubmitted(req.Op)
	s.met.jobAdmitted(tenant, priorityOrNormal(req.Priority))
	s.metaMu.Lock()
	s.pruneMetaLocked()
	s.meta[id] = jobMeta{op: req.Op, hash: hash, idemKey: idemKey}
	if idemKey != "" {
		s.idem[idemKey] = id
	}
	s.metaMu.Unlock()

	sn, err := s.queue.Get(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.status(sn))
}

// idempotentHit resolves an Idempotency-Key to the status of the job it
// originally admitted: live from the queue when retained, otherwise
// from the journal's historic record.
func (s *Server) idempotentHit(key string) (client.JobStatus, bool) {
	s.metaMu.Lock()
	id, ok := s.idem[key]
	var hist client.JobStatus
	histOK := false
	if ok {
		hist, histOK = s.historic[id]
	}
	s.metaMu.Unlock()
	if !ok {
		return client.JobStatus{}, false
	}
	if sn, err := s.queue.Get(id); err == nil {
		return s.status(sn), true
	}
	if histOK {
		return hist, true
	}
	return client.JobStatus{}, false
}

// jobFn builds the queue function for one job: result-memo check,
// engine execution (with checkpoint/resume wiring for the optimizers),
// memo fill. In cluster mode the execution step becomes a dispatch:
// the job is planned into work units, fanned out to lease-holding
// workers, and the unit results merged bit-exactly (coordinator.go) —
// the memo and journal never see the difference.
func (s *Server) jobFn(id string, req client.JobRequest, d *repro.Design, hash, key string, resume *repro.OptCheckpoint) jobs.Fn {
	return func(ctx context.Context) (any, error) {
		if v, ok := s.cache.Result(hash, key); ok {
			return outcome{payload: v, cacheHit: true}, nil
		}
		var (
			payload any
			err     error
		)
		if s.pool != nil {
			payload, err = s.dispatch(ctx, id, req, d, hash, resume)
		} else {
			payload, err = oprun.Run(ctx, req, d, resume, s.checkpointSink(id))
		}
		if err != nil {
			return nil, err
		}
		s.cache.PutResult(hash, key, payload)
		return outcome{payload: payload}, nil
	}
}

// completionCounted wraps a job so terminal transitions feed the
// completed-jobs counter.
func (s *Server) completionCounted(fn jobs.Fn) jobs.Fn {
	return func(ctx context.Context) (any, error) {
		v, err := fn(ctx)
		switch {
		case err == nil:
			s.met.jobCompleted(string(jobs.StateDone))
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			s.met.jobCompleted(string(jobs.StateCancelled))
		default:
			s.met.jobCompleted(string(jobs.StateFailed))
		}
		return v, err
	}
}

// pruneMetaLocked drops metadata (and idempotency-key entries) for jobs
// the queue has GC'd. Callers hold metaMu.
func (s *Server) pruneMetaLocked() {
	if len(s.meta) < 64 {
		return
	}
	for id, m := range s.meta {
		if _, err := s.queue.Get(id); errors.Is(err, jobs.ErrNotFound) {
			delete(s.meta, id)
			if m.idemKey != "" {
				delete(s.idem, m.idemKey)
			}
		}
	}
}

// checkpointSink returns the optimizer checkpoint callback for a job:
// each emission heartbeats the stall watchdog (surfacing progress to
// pollers) and, when the journal is on, persists the resumable state.
func (s *Server) checkpointSink(id string) func(repro.OptCheckpoint) {
	return func(cp repro.OptCheckpoint) {
		// Injection site "server.checkpoint": chaos runs install a Delay
		// plan here to stretch optimizer iterations deterministically, so
		// a kill/restart reliably lands mid-run. Delays never change
		// results — the optimizer's math is untouched.
		_ = s.cfg.Inject.Fire("server.checkpoint")
		s.queue.SetProgress(id, cp.Iter, cp.Cost)
		if s.jnl == nil {
			return
		}
		b, err := json.Marshal(cp)
		if err != nil {
			return
		}
		s.journalAppend(journal.Record{Type: journal.TypeCheckpoint, Job: id, Checkpoint: b})
	}
}

// status converts a queue snapshot into the wire representation.
func (s *Server) status(sn jobs.Snapshot) client.JobStatus {
	s.metaMu.Lock()
	meta := s.meta[sn.ID]
	s.metaMu.Unlock()
	st := client.JobStatus{
		ID:         sn.ID,
		Op:         meta.op,
		State:      string(sn.State),
		DesignHash: meta.hash,
		Created:    sn.Created,
		Attempt:    meta.attempt,
		Started:    sn.Started,
		Finished:   sn.Finished,
	}
	if sn.Progress != nil {
		st.Progress = &client.JobProgress{
			Iter: sn.Progress.Iter, Cost: sn.Progress.Cost, Updated: sn.Progress.Updated,
		}
	}
	if sn.Err != nil {
		st.Error = sn.Err.Error()
	}
	if out, ok := sn.Result.(outcome); ok {
		st.CacheHit = out.cacheHit
		if b, err := json.Marshal(out.payload); err == nil {
			st.Result = b
		} else {
			st.Error = fmt.Sprintf("encode result: %v", err)
			st.State = string(jobs.StateFailed)
		}
	}
	return st
}

// historicFor looks a job up in the journal-derived terminal set.
func (s *Server) historicFor(id string) (client.JobStatus, bool) {
	s.metaMu.Lock()
	st, ok := s.historic[id]
	s.metaMu.Unlock()
	return st, ok
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sn, err := s.queue.Get(id)
	if errors.Is(err, jobs.ErrNotFound) {
		// A job finished before the restart is still answerable from the
		// journal — a client Wait-ing across the restart sees the real
		// outcome, not a 404.
		if st, ok := s.historicFor(id); ok {
			writeJSON(w, http.StatusOK, st)
			return
		}
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" && !sn.State.Terminal() {
		d, perr := time.ParseDuration(waitStr)
		if perr != nil || d < 0 {
			writeError(w, http.StatusBadRequest, "bad wait duration %q", waitStr)
			return
		}
		if max := s.cfg.maxWait(); d > max {
			d = max
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		// Timeout just returns the latest snapshot; the poller retries.
		if wsn, werr := s.queue.Wait(ctx, id); werr == nil || errors.Is(werr, context.DeadlineExceeded) {
			sn = wsn
		}
	}
	writeJSON(w, http.StatusOK, s.status(sn))
}

// listLimits bound GET /v1/jobs pages: the default when ?limit= is
// absent and the hard cap a client may ask for.
const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

// handleList pages through retained jobs, newest first. Job IDs are
// zero-padded sequence numbers, so lexicographic descent is creation
// order descent and the cursor is simply the last ID of the previous
// page: a page holds the first `limit` jobs with ID strictly below it.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	limit := defaultListLimit
	if ls := r.URL.Query().Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q (want a positive integer)", ls)
			return
		}
		if limit = n; limit > maxListLimit {
			limit = maxListLimit
		}
	}
	cursor := r.URL.Query().Get("cursor")

	sns := s.queue.List()
	out := make([]client.JobStatus, 0, len(sns))
	seen := make(map[string]bool, len(sns))
	for _, sn := range sns {
		seen[sn.ID] = true
		if cursor == "" || sn.ID < cursor {
			out = append(out, s.status(sn))
		}
	}
	s.metaMu.Lock()
	for id, st := range s.historic {
		if !seen[id] && (cursor == "" || id < cursor) {
			out = append(out, st)
		}
	}
	s.metaMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })

	list := client.JobList{Jobs: out}
	if len(out) > limit {
		list.Jobs = out[:limit]
		list.NextCursor = out[limit-1].ID
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sn, err := s.queue.Get(id)
	if errors.Is(err, jobs.ErrNotFound) {
		if st, ok := s.historicFor(id); ok {
			writeJSON(w, http.StatusOK, st) // already terminal
			return
		}
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	if !sn.State.Terminal() {
		s.queue.Cancel(id)
		sn, _ = s.queue.Get(id)
	}
	writeJSON(w, http.StatusOK, s.status(sn))
}

// handleStream is the server-sent-events endpoint: one "data:" event
// per observed state change, closing after the terminal event.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.queue.Get(id); errors.Is(err, jobs.ErrNotFound) {
		if st, ok := s.historicFor(id); ok {
			// One terminal event, then EOF: the stream contract holds
			// even for jobs that finished before the restart.
			if b, err := json.Marshal(st); err == nil {
				w.Header().Set("Content-Type", "text/event-stream")
				w.Header().Set("Cache-Control", "no-cache")
				w.WriteHeader(http.StatusOK)
				fmt.Fprintf(w, "data: %s\n\n", b)
			}
			return
		}
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	var lastState jobs.State
	for {
		sn, err := s.queue.Get(id)
		if err != nil {
			return // GC'd mid-stream; the client sees EOF after a terminal event
		}
		if sn.State != lastState {
			lastState = sn.State
			b, err := json.Marshal(s.status(sn))
			if err != nil {
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", b)
			flusher.Flush()
			if sn.State.Terminal() {
				return
			}
		}
		// Block until the state can have changed: terminal transition
		// or a short tick (queued->running is not signalled).
		ctx, cancel := context.WithTimeout(r.Context(), 250*time.Millisecond)
		_, werr := s.queue.Wait(ctx, id)
		cancel()
		if r.Context().Err() != nil {
			return
		}
		_ = werr
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	queued, running := s.queue.Depth()
	writeJSON(w, http.StatusOK, client.Healthz{
		Status:      "ok",
		JobsQueued:  queued,
		JobsRunning: running,
		Role:        s.build.Role,
		Node:        s.build.Node,
		Revision:    s.build.Revision,
		GoVersion:   s.build.GoVersion,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	queued, running := s.queue.Depth()
	cs := s.cache.Stats()
	gauges := []gauge{
		{"sstad_jobs_queue_depth", "Jobs waiting in the queue.", float64(queued)},
		{"sstad_jobs_running", "Jobs currently executing.", float64(running)},
		{"sstad_cache_design_hits_total", "Design cache hits (content-addressed interning).", float64(cs.DesignHits)},
		{"sstad_cache_design_misses_total", "Design cache misses.", float64(cs.DesignMisses)},
		{"sstad_cache_result_hits_total", "Result memo hits ((design, options) reuse).", float64(cs.ResultHits)},
		{"sstad_cache_result_misses_total", "Result memo misses.", float64(cs.ResultMisses)},
		{"sstad_cache_designs", "Designs currently cached.", float64(cs.Designs)},
		{"sstad_cache_results", "Results currently memoized.", float64(cs.Results)},
		{"sstad_journal_appends_total", "Journal records durably appended.", float64(s.journalAppends.Load())},
		{"sstad_journal_errors_total", "Journal append failures.", float64(s.journalErrors.Load())},
		{"sstad_jobs_recovered_total", "Jobs re-enqueued from the journal at startup.", float64(s.jobsRecovered.Load())},
		{"sstad_jobs_recovery_dropped_total", "Journaled jobs recovery resolved terminally instead of re-running (attempt budget exhausted or unrebuildable).", float64(s.recoveryDropped.Load())},
		{"sstad_idempotent_hits_total", "Submits deduplicated by Idempotency-Key.", float64(s.idemHits.Load())},
	}
	var ps cluster.PoolStats
	if s.pool != nil {
		ps = s.pool.Stats()
		gauges = append(gauges,
			gauge{"sstad_cluster_units_pending", "Work units awaiting a worker lease.", float64(ps.Pending)},
			gauge{"sstad_cluster_units_leased", "Work units currently leased to workers.", float64(ps.Leased)},
			gauge{"sstad_cluster_leases_expired_total", "Leases lost to TTL expiry (unit re-enqueued or failed).", float64(ps.Expired)},
			gauge{"sstad_cluster_stale_drops_total", "Heartbeats/completions rejected because the lease was gone.", float64(ps.StaleDrops)},
		)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.write(w, gauges)
	if s.pool != nil {
		fmt.Fprintln(w, "# HELP sstad_cluster_leases_granted_total Leases handed out, by worker.")
		fmt.Fprintln(w, "# TYPE sstad_cluster_leases_granted_total counter")
		for _, worker := range sortedKeys(ps.Granted) {
			fmt.Fprintf(w, "sstad_cluster_leases_granted_total{worker=%q} %d\n", worker, ps.Granted[worker])
		}
	}
	b := s.build
	fmt.Fprintln(w, "# HELP sstad_build_info Build identity of this node (value is always 1).")
	fmt.Fprintln(w, "# TYPE sstad_build_info gauge")
	fmt.Fprintf(w, "sstad_build_info{revision=%q,go_version=%q,role=%q,node=%q,dirty=\"%t\"} 1\n",
		b.Revision, b.GoVersion, b.Role, b.Node, b.Dirty)
}

// tenantOf resolves the submitting tenant: the X-Tenant header, or
// "default" for unlabeled traffic (single-tenant deployments never need
// to send the header).
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

func priorityOrNormal(p string) string {
	if p == "" {
		return client.PriorityNormal
	}
	return p
}

func retryAfterSeconds(d time.Duration) string {
	secs := int(d/time.Second) + 1
	return strconv.Itoa(secs)
}
