package server

// The in-process chaos suite: servers are started, interrupted
// mid-optimization and restarted on the same journal, asserting the
// fault-tolerance contract — interrupted jobs resume and finish with
// results bit-identical to uninterrupted runs, idempotent submits never
// duplicate work, attempt budgets terminate crash loops, and injected
// journal faults surface as retryable backpressure, not corruption.
// The subprocess kill -9 variant lives in crash_test.go.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/client"
	"repro/internal/faultinject"
	"repro/internal/journal"
)

// newDurable spins up a Server (typically journal-backed) behind an
// httptest listener with a fast-retry client.
func newDurable(t *testing.T, cfg Config) (*Server, *httptest.Server, *client.Client) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	c := client.New(ts.URL, client.WithHTTPClient(ts.Client()),
		client.WithRetry(client.RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 1}))
	return srv, ts, c
}

// interrupt simulates a crash from the journal's point of view: the
// listener drops and the queue is torn down without journaling terminal
// records for in-flight work (Shutdown suppresses them by design).
func interrupt(t *testing.T, srv *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// postJob submits a job over raw HTTP so the test controls the
// Idempotency-Key header and can read response headers.
func postJob(t *testing.T, ts *httptest.Server, idemKey string, req client.JobRequest) (*http.Response, client.JobStatus) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if idemKey != "" {
		hreq.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var st client.JobStatus
	if resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp, st
}

// awaitProgress polls until the job reports a heartbeat at or past
// iter, failing if it goes terminal first (the test needed to interrupt
// it mid-run).
func awaitProgress(t *testing.T, c *client.Client, id string, iter int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			t.Fatalf("poll %s: %v", id, err)
		}
		if st.Progress != nil && st.Progress.Iter >= iter {
			return
		}
		if st.Terminal() {
			t.Fatalf("job %s finished (%s) before reaching iteration %d", id, st.State, iter)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestChaosRestartResumesOptimizeBitExact is the acceptance criterion:
// an optimization interrupted mid-run and recovered on restart finishes
// with a sizing vector bit-identical to the uninterrupted run's.
func TestChaosRestartResumesOptimizeBitExact(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "jobs.journal")
	cfg := Config{JobWorkers: 1, JobTimeout: 2 * time.Minute, JournalPath: jp, NoSync: true}

	// Stretch each optimizer iteration so the interrupt deterministically
	// lands mid-run (the benches finish in tens of milliseconds
	// otherwise). Delay-only injection never alters results.
	inj := faultinject.New(1)
	inj.Set("server.checkpoint", faultinject.Plan{Delay: 25 * time.Millisecond})
	cfgA := cfg
	cfgA.Inject = inj

	srvA, tsA, cA := newDurable(t, cfgA)
	req := client.JobRequest{
		Op: client.OpOptimize, Generate: "alu2",
		Lambda: 9, Workers: 1, MaxIters: 12,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := cA.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Let it get at least two checkpoints deep, then pull the plug.
	awaitProgress(t, cA, st.ID, 2)
	interrupt(t, srvA, tsA)

	srvB, tsB, cB := newDurable(t, cfg)
	defer interrupt(t, srvB, tsB)
	if got := srvB.jobsRecovered.Load(); got != 1 {
		t.Fatalf("jobs recovered on restart = %d, want 1", got)
	}
	final, err := cB.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("wait after restart: %v", err)
	}
	if final.State != "done" {
		t.Fatalf("recovered job state = %s (err %q), want done", final.State, final.Error)
	}
	if final.Attempt != 2 {
		t.Fatalf("recovered job attempt = %d, want 2 (original + post-crash)", final.Attempt)
	}
	got, err := final.Optimize()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	// The uninterrupted reference run, straight through the library.
	d, err := repro.Generate("alu2")
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.Optimize(9, repro.RunOptions{Workers: 1, MaxIters: 12})
	if err != nil {
		t.Fatalf("direct optimize: %v", err)
	}
	wantSizes := d.Sizes()
	if len(got.Sizes) != len(wantSizes) {
		t.Fatalf("sizing vector length %d, want %d", len(got.Sizes), len(wantSizes))
	}
	for i := range wantSizes {
		if got.Sizes[i] != wantSizes[i] {
			t.Fatalf("resumed run diverged from uninterrupted run at gate %d: size %d vs %d",
				i, got.Sizes[i], wantSizes[i])
		}
	}
	if got.Iterations != want.Iterations || got.StoppedBy != want.StoppedBy ||
		got.SigmaAfter != want.SigmaAfter || got.MeanAfter != want.MeanAfter {
		t.Fatalf("resumed result differs from uninterrupted:\nresumed: %+v\ndirect:  %+v", got, want)
	}
}

// TestChaosRestartResumesSensitivityBitExact extends the resume
// contract to the sensitivity backend: a SensitivitySizer job killed
// mid-run and recovered from its journaled checkpoint finishes with a
// sizing vector bit-identical to the uninterrupted library run.
func TestChaosRestartResumesSensitivityBitExact(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "jobs.journal")
	cfg := Config{JobWorkers: 1, JobTimeout: 2 * time.Minute, JournalPath: jp, NoSync: true}

	inj := faultinject.New(1)
	inj.Set("server.checkpoint", faultinject.Plan{Delay: 25 * time.Millisecond})
	cfgA := cfg
	cfgA.Inject = inj

	srvA, tsA, cA := newDurable(t, cfgA)
	req := client.JobRequest{
		Op: client.OpOptimize, Generate: "alu2",
		Lambda: 9, Workers: 1, MaxIters: 12,
		Optimizer: "sensitivity",
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := cA.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	awaitProgress(t, cA, st.ID, 2)
	interrupt(t, srvA, tsA)

	srvB, tsB, cB := newDurable(t, cfg)
	defer interrupt(t, srvB, tsB)
	if got := srvB.jobsRecovered.Load(); got != 1 {
		t.Fatalf("jobs recovered on restart = %d, want 1", got)
	}
	final, err := cB.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("wait after restart: %v", err)
	}
	if final.State != "done" {
		t.Fatalf("recovered job state = %s (err %q), want done", final.State, final.Error)
	}
	if final.Attempt != 2 {
		t.Fatalf("recovered job attempt = %d, want 2 (original + post-crash)", final.Attempt)
	}
	got, err := final.Optimize()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	d, err := repro.Generate("alu2")
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.Optimize(9, repro.RunOptions{Workers: 1, MaxIters: 12, Optimizer: "sensitivity"})
	if err != nil {
		t.Fatalf("direct sensitivity run: %v", err)
	}
	wantSizes := d.Sizes()
	if len(got.Sizes) != len(wantSizes) {
		t.Fatalf("sizing vector length %d, want %d", len(got.Sizes), len(wantSizes))
	}
	for i := range wantSizes {
		if got.Sizes[i] != wantSizes[i] {
			t.Fatalf("resumed run diverged from uninterrupted run at gate %d: size %d vs %d",
				i, got.Sizes[i], wantSizes[i])
		}
	}
	if got.Iterations != want.Iterations || got.StoppedBy != want.StoppedBy ||
		got.SigmaAfter != want.SigmaAfter || got.MeanAfter != want.MeanAfter {
		t.Fatalf("resumed result differs from uninterrupted:\nresumed: %+v\ndirect:  %+v", got, want)
	}
}

// TestChaosIdempotentSubmitNeverDuplicates: the same Idempotency-Key
// resolves to the same job — within a process, after completion, and
// across a restart.
func TestChaosIdempotentSubmitNeverDuplicates(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "jobs.journal")
	cfg := Config{JobWorkers: 1, JournalPath: jp, NoSync: true}
	const key = "chaos-idem-key-1"
	req := client.JobRequest{Op: client.OpAnalyze, Generate: "alu1", Workers: 1}

	srvA, tsA, cA := newDurable(t, cfg)
	resp1, first := postJob(t, tsA, key, req)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", resp1.StatusCode)
	}
	resp2, dup := postJob(t, tsA, key, req)
	if resp2.StatusCode/100 != 2 || dup.ID != first.ID {
		t.Fatalf("retried submit: HTTP %d, job %q; want the original %q", resp2.StatusCode, dup.ID, first.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := cA.Wait(ctx, first.ID); err != nil {
		t.Fatalf("wait: %v", err)
	}
	// Retried after completion: same job, with its terminal result.
	_, done := postJob(t, tsA, key, req)
	if done.ID != first.ID || done.State != "done" || len(done.Result) == 0 {
		t.Fatalf("post-completion retry = %+v, want the finished original", done)
	}
	if list, err := cA.Jobs(ctx); err != nil || len(list) != 1 {
		t.Fatalf("job list = %v entries (%v), want exactly 1", len(list), err)
	}
	interrupt(t, srvA, tsA)

	// Across a restart the queue is fresh; the journal must still
	// collapse the retry onto the original, finished job.
	srvB, tsB, cB := newDurable(t, cfg)
	defer interrupt(t, srvB, tsB)
	_, again := postJob(t, tsB, key, req)
	if again.ID != first.ID || again.State != "done" || len(again.Result) == 0 {
		t.Fatalf("post-restart retry = %+v, want the finished original %s", again, first.ID)
	}
	if srvB.idemHits.Load() == 0 {
		t.Fatal("idempotent hit not counted after restart")
	}
	list, err := cB.Jobs(ctx)
	if err != nil || len(list) != 1 || list[0].ID != first.ID {
		t.Fatalf("post-restart job list = %+v (%v), want exactly the original job", list, err)
	}
}

// seedJournal writes a handcrafted record sequence, simulating a
// pre-crash history the server under test must then recover from.
func seedJournal(t *testing.T, path string, recs ...journal.Record) {
	t.Helper()
	jnl, existing, err := journal.Open(path, journal.Options{NoSync: true})
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	if len(existing) != 0 {
		t.Fatalf("seed journal not empty: %d records", len(existing))
	}
	for _, rec := range recs {
		if err := jnl.Append(rec); err != nil {
			t.Fatalf("seed append: %v", err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func mustJSON(t *testing.T, v any) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestChaosAttemptBudgetExhausted: a job the journal shows crashing
// MaxAttempts times is failed terminally on recovery instead of being
// retried forever — and stays failed across further restarts.
func TestChaosAttemptBudgetExhausted(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "jobs.journal")
	req := client.JobRequest{Op: client.OpAnalyze, Generate: "alu1", Workers: 1}
	seedJournal(t, jp,
		journal.Record{Type: journal.TypeSubmit, Job: "j000001", Op: req.Op, Request: mustJSON(t, req)},
		journal.Record{Type: journal.TypeStart, Job: "j000001", Attempt: 1},
		journal.Record{Type: journal.TypeStart, Job: "j000001", Attempt: 2},
	)
	cfg := Config{JobWorkers: 1, JournalPath: jp, NoSync: true, MaxAttempts: 2}

	srvA, tsA, cA := newDurable(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := cA.Job(ctx, "j000001")
	if err != nil {
		t.Fatalf("poll exhausted job: %v", err)
	}
	if st.State != "failed" {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "attempt budget") {
		t.Fatalf("error = %q, want mention of the exhausted attempt budget", st.Error)
	}
	if got := srvA.recoveryDropped.Load(); got != 1 {
		t.Fatalf("recovery dropped = %d, want 1", got)
	}
	interrupt(t, srvA, tsA)

	// The terminal failure was journaled: the next restart must not
	// retry (exactly-once terminal resolution, no crash loop).
	srvB, tsB, cB := newDurable(t, cfg)
	defer interrupt(t, srvB, tsB)
	if got := srvB.jobsRecovered.Load(); got != 0 {
		t.Fatalf("exhausted job was re-enqueued on second restart (recovered=%d)", got)
	}
	st2, err := cB.Job(ctx, "j000001")
	if err != nil || st2.State != "failed" {
		t.Fatalf("after second restart: state %q err %v, want failed", st2.State, err)
	}
}

// TestChaosQueuedJobRecovered: a job admitted but never started before
// the crash is re-enqueued and runs to completion on restart.
func TestChaosQueuedJobRecovered(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "jobs.journal")
	req := client.JobRequest{Op: client.OpAnalyze, Generate: "alu1", Workers: 1}
	seedJournal(t, jp,
		journal.Record{Type: journal.TypeSubmit, Job: "j000001", Op: req.Op, Request: mustJSON(t, req)},
	)
	srv, ts, c := newDurable(t, Config{JobWorkers: 1, JournalPath: jp, NoSync: true})
	defer interrupt(t, srv, ts)
	if got := srv.jobsRecovered.Load(); got != 1 {
		t.Fatalf("jobs recovered = %d, want 1", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := c.Wait(ctx, "j000001")
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.State != "done" || st.Attempt != 1 {
		t.Fatalf("recovered queued job: state %s attempt %d, want done/1", st.State, st.Attempt)
	}
	if _, err := st.Analyze(); err != nil {
		t.Fatalf("decode recovered result: %v", err)
	}
	// Fresh submissions must allocate IDs past the replayed one.
	st2, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("fresh submit after recovery: %v", err)
	}
	if st2.ID <= "j000001" {
		t.Fatalf("fresh job ID %s does not continue past replayed j000001", st2.ID)
	}
}

// TestChaosJournalAppendFaultRejectsSubmit: an injected journal write
// failure turns the submit into retryable backpressure (503 +
// Retry-After) — never an unjournaled acknowledgment.
func TestChaosJournalAppendFaultRejectsSubmit(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "jobs.journal")
	inj := faultinject.New(1)
	inj.Set("journal.append.write", faultinject.Plan{FailFirst: 1})
	srv, ts, c := newDurable(t, Config{JobWorkers: 1, JournalPath: jp, NoSync: true, Inject: inj})
	defer interrupt(t, srv, ts)

	req := client.JobRequest{Op: client.OpAnalyze, Generate: "alu1", Workers: 1}
	resp, _ := postJob(t, ts, "", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with failing journal: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 carries no Retry-After header")
	}
	if got := srv.journalErrors.Load(); got != 1 {
		t.Fatalf("journal errors = %d, want 1", got)
	}
	// The failure was transient (FailFirst: 1): a retried submit — what
	// the client's retry loop would do — succeeds.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := c.Run(ctx, req)
	if err != nil || st.State != "done" {
		t.Fatalf("submit after transient journal fault = (%+v, %v), want done", st, err)
	}
	if inj.Fired("journal.append.write") != 1 {
		t.Fatalf("injector fired %d times, want 1", inj.Fired("journal.append.write"))
	}
}

// TestChaosQueueFullRetryAfter: the pre-existing 429 backpressure path
// now tells clients when to come back.
func TestChaosQueueFullRetryAfter(t *testing.T) {
	// Delay each checkpoint so the worker-occupying optimization cannot
	// converge and drain the queue before the assertions run.
	inj := faultinject.New(1)
	inj.Set("server.checkpoint", faultinject.Plan{Delay: 50 * time.Millisecond})
	srv, ts, c := newDurable(t, Config{JobWorkers: 1, QueueCapacity: 1, JobTimeout: 2 * time.Minute, Inject: inj})
	defer interrupt(t, srv, ts)

	// Occupy the one worker with a long optimization, then fill the
	// one-slot queue.
	long := client.JobRequest{Op: client.OpOptimize, Generate: "alu2", Lambda: 9, Workers: 1, MaxIters: 500}
	respLong, stLong := postJob(t, ts, "", long)
	if respLong.StatusCode != http.StatusAccepted {
		t.Fatalf("long submit: HTTP %d", respLong.StatusCode)
	}
	awaitProgress(t, c, stLong.ID, 1) // running, not queued
	queued := client.JobRequest{Op: client.OpAnalyze, Generate: "alu1", Workers: 1}
	respQ, stQ := postJob(t, ts, "", queued)
	if respQ.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit: HTTP %d", respQ.StatusCode)
	}

	resp, _ := postJob(t, ts, "", client.JobRequest{Op: client.OpAnalyze, Generate: "c432", Workers: 1})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After header")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Cancel(ctx, stLong.ID); err != nil {
		t.Fatalf("cancel long job: %v", err)
	}
	if err := c.Cancel(ctx, stQ.ID); err != nil {
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("cancel queued job: %v", err)
		}
	}
}

// TestChaosProgressHeartbeatVisible: optimizer checkpoints surface as
// the job's progress heartbeat on the poll endpoint.
func TestChaosProgressHeartbeatVisible(t *testing.T) {
	srv, ts, c := newDurable(t, Config{JobWorkers: 1, JobTimeout: 2 * time.Minute})
	defer interrupt(t, srv, ts)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := c.Submit(ctx, client.JobRequest{
		Op: client.OpOptimize, Generate: "alu2", Lambda: 9, Workers: 1, MaxIters: 8,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	awaitProgress(t, c, st.ID, 1)
	mid, err := c.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Progress == nil || mid.Progress.Cost <= 0 || mid.Progress.Updated.IsZero() {
		t.Fatalf("running job progress = %+v, want iter/cost/updated populated", mid.Progress)
	}
	if _, err := c.Wait(ctx, st.ID); err != nil {
		t.Fatalf("wait: %v", err)
	}
}
