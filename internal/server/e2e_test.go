package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/client"
)

// startService spins up the full stack in-process: Server behind an
// httptest listener, talked to through the public client package —
// exactly what cmd/sstad wires up, minus the socket flags.
func startService(t *testing.T) (*client.Client, *Server) {
	t.Helper()
	srv, err := New(Config{JobWorkers: 2, JobTimeout: 2 * time.Minute})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return client.New(ts.URL), srv
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func equalSlices(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestE2EAnalyzeMatchesDirect submits a c432 analyze job through the
// client and asserts the service's answer is bit-for-bit the answer of
// calling the library directly with the same options.
func TestE2EAnalyzeMatchesDirect(t *testing.T) {
	c, _ := startService(t)
	ctx := ctxT(t)

	if err := c.Health(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	st, err := c.Run(ctx, client.JobRequest{
		Op:       client.OpAnalyze,
		Generate: "c432",
		Workers:  1,
	})
	if err != nil {
		t.Fatalf("run analyze: %v", err)
	}
	if st.State != "done" {
		t.Fatalf("analyze job state = %s (err %q), want done", st.State, st.Error)
	}
	if st.DesignHash == "" {
		t.Fatal("analyze job carries no design hash")
	}
	got, err := st.Analyze()
	if err != nil {
		t.Fatalf("decode analyze result: %v", err)
	}

	d, err := repro.Generate("c432")
	if err != nil {
		t.Fatalf("generate c432: %v", err)
	}
	want := d.AnalyzeOpts(repro.RunOptions{Workers: 1})

	if got.Mean != want.Mean || got.Sigma != want.Sigma || got.NominalDelay != want.NominalDelay {
		t.Fatalf("moments differ: service (%v, %v, %v) vs direct (%v, %v, %v)",
			got.Mean, got.Sigma, got.NominalDelay, want.Mean, want.Sigma, want.NominalDelay)
	}
	if !equalSlices(got.PDFX, want.PDFX) || !equalSlices(got.PDFY, want.PDFY) {
		t.Fatal("PDF support differs between service and direct call")
	}
}

// TestE2EOptimizeMatchesDirect runs the lambda=3 statistical optimizer
// through the service and compares every result field except Runtime
// against the direct library call.
func TestE2EOptimizeMatchesDirect(t *testing.T) {
	c, _ := startService(t)
	ctx := ctxT(t)

	req := client.JobRequest{
		Op:       client.OpOptimize,
		Generate: "c432",
		Lambda:   3,
		Workers:  1,
		MaxIters: 4,
	}
	st, err := c.Run(ctx, req)
	if err != nil {
		t.Fatalf("run optimize: %v", err)
	}
	if st.State != "done" {
		t.Fatalf("optimize job state = %s (err %q), want done", st.State, st.Error)
	}
	got, err := st.Optimize()
	if err != nil {
		t.Fatalf("decode optimize result: %v", err)
	}

	d, err := repro.Generate("c432")
	if err != nil {
		t.Fatalf("generate c432: %v", err)
	}
	want, err := d.Optimize(3, repro.RunOptions{Workers: 1, MaxIters: 4})
	if err != nil {
		t.Fatalf("direct optimize: %v", err)
	}

	if got.MeanBefore != want.MeanBefore || got.MeanAfter != want.MeanAfter ||
		got.SigmaBefore != want.SigmaBefore || got.SigmaAfter != want.SigmaAfter ||
		got.AreaBefore != want.AreaBefore || got.AreaAfter != want.AreaAfter ||
		got.Iterations != want.Iterations || got.StoppedBy != want.StoppedBy {
		t.Fatalf("optimize results differ:\nservice: %+v\ndirect:  %+v", got, want)
	}
}

// metricValue extracts the value of a plain (label-free) metric line.
func metricValue(t *testing.T, metrics, name string) string {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strings.TrimSpace(strings.TrimPrefix(line, name+" "))
		}
	}
	t.Fatalf("metric %s not found in exposition:\n%s", name, metrics)
	return ""
}

// TestE2ERepeatSubmitServedFromCache submits the same (design, options)
// job twice and asserts the second is a cache hit, visible both on the
// job status and in the /metrics counters.
func TestE2ERepeatSubmitServedFromCache(t *testing.T) {
	c, _ := startService(t)
	ctx := ctxT(t)

	req := client.JobRequest{
		Op:           client.OpAnalyze,
		Generate:     "c432",
		Workers:      1,
		YieldPeriods: []float64{2000},
	}
	first, err := c.Run(ctx, req)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if first.CacheHit {
		t.Fatal("first submission claims a cache hit")
	}

	second, err := c.Run(ctx, req)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !second.CacheHit {
		t.Fatal("second identical submission was not served from the design cache")
	}
	if second.DesignHash != first.DesignHash {
		t.Fatalf("design hash changed between submissions: %s vs %s", first.DesignHash, second.DesignHash)
	}
	if string(second.Result) != string(first.Result) {
		t.Fatalf("cached result differs from original:\nfirst:  %s\nsecond: %s", first.Result, second.Result)
	}

	// Different options must NOT hit the memo.
	req.YieldPeriods = []float64{2500}
	third, err := c.Run(ctx, req)
	if err != nil {
		t.Fatalf("third run: %v", err)
	}
	if third.CacheHit {
		t.Fatal("different options were wrongly served from the memo")
	}

	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if got := metricValue(t, metrics, "sstad_cache_result_hits_total"); got != "1" {
		t.Fatalf("sstad_cache_result_hits_total = %s, want 1", got)
	}
	if got := metricValue(t, metrics, "sstad_cache_result_misses_total"); got != "2" {
		t.Fatalf("sstad_cache_result_misses_total = %s, want 2", got)
	}
	// Three submissions of the same netlist intern one design.
	if got := metricValue(t, metrics, "sstad_cache_designs"); got != "1" {
		t.Fatalf("sstad_cache_designs = %s, want 1", got)
	}
	if !strings.Contains(metrics, `sstad_jobs_submitted_total{op="analyze"} 3`) {
		t.Fatal("jobs_submitted counter missing or wrong in /metrics")
	}
	if !strings.Contains(metrics, "sstad_http_request_duration_seconds_bucket") {
		t.Fatal("latency histogram missing from /metrics")
	}
}

// TestE2EInlineBenchAndStream round-trips an inline netlist (SaveBench
// of a generated design) through the submit endpoint and follows the
// job via the SSE stream.
func TestE2EInlineBenchAndStream(t *testing.T) {
	c, _ := startService(t)
	ctx := ctxT(t)

	d, err := repro.Generate("alu1")
	if err != nil {
		t.Fatalf("generate alu1: %v", err)
	}
	var sb strings.Builder
	if err := d.SaveBench(&sb); err != nil {
		t.Fatalf("save bench: %v", err)
	}

	st, err := c.Submit(ctx, client.JobRequest{
		Op:      client.OpAnalyze,
		Bench:   sb.String(),
		Name:    "alu1-inline",
		Workers: 1,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	var states []string
	final, err := c.Stream(ctx, st.ID, func(s client.JobStatus) {
		states = append(states, s.State)
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if final == nil || final.State != "done" {
		t.Fatalf("stream ended in state %+v, want done", final)
	}
	if len(states) == 0 || states[len(states)-1] != "done" {
		t.Fatalf("stream states = %v, want terminal done", states)
	}

	got, err := final.Analyze()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := d.AnalyzeOpts(repro.RunOptions{Workers: 1})
	if got.Mean != want.Mean || got.Sigma != want.Sigma {
		t.Fatalf("inline-bench analyze differs: (%v, %v) vs (%v, %v)",
			got.Mean, got.Sigma, want.Mean, want.Sigma)
	}

	// The inline netlist must intern to the same content hash as the
	// generated design, regardless of its display name.
	st2, err := c.Run(ctx, client.JobRequest{Op: client.OpAnalyze, Generate: "alu1", Workers: 1})
	if err != nil {
		t.Fatalf("generate-side run: %v", err)
	}
	if st2.DesignHash != st.DesignHash {
		t.Fatalf("inline and generated alu1 hash differently: %s vs %s", st.DesignHash, st2.DesignHash)
	}
}

// TestE2EValidationAndErrors exercises the submit-time rejection paths.
func TestE2EValidationAndErrors(t *testing.T) {
	c, _ := startService(t)
	ctx := ctxT(t)

	bad := []client.JobRequest{
		{Op: "frobnicate", Generate: "c432"},
		{Op: client.OpAnalyze},                                // neither bench nor generate
		{Op: client.OpAnalyze, Generate: "c432", Workers: -1}, // bad workers
		{Op: client.OpMonteCarlo, Generate: "c432"},           // samples missing
		{Op: client.OpOptimize, Generate: "c432", Lambda: -1}, // bad lambda
		{Op: client.OpAnalyze, Generate: "no-such-bench"},     // unknown design
		{Op: client.OpAnalyze, Bench: "GARBAGE(", Name: "x"},  // unparsable netlist
		{Op: client.OpAnalyze, Generate: "c432", TargetYields: []float64{1.5}},
	}
	for i, req := range bad {
		if _, err := c.Submit(ctx, req); err == nil {
			t.Errorf("bad request %d accepted: %+v", i, req)
		}
	}

	if _, err := c.Job(ctx, "j999999"); err == nil {
		t.Error("polling an unknown job succeeded")
	}
	if err := c.Cancel(ctx, "j999999"); err == nil {
		t.Error("cancelling an unknown job succeeded")
	}
}

// TestE2ELintDiagnostics submits structurally invalid netlists and
// asserts the service rejects them at submit time with HTTP 400 and a
// machine-readable diagnostics array naming the check and the offending
// gate/net.
func TestE2ELintDiagnostics(t *testing.T) {
	c, _ := startService(t)
	ctx := ctxT(t)

	cases := []struct {
		name      string
		bench     string
		wantCheck string
		wantGate  string
	}{
		{
			name: "cycle",
			bench: `INPUT(a)
OUTPUT(y)
g1 = AND(a, g2)
g2 = NOT(g1)
y = BUF(g1)
`,
			wantCheck: "cycle",
			wantGate:  "g1",
		},
		{
			name: "undriven",
			bench: `INPUT(a)
OUTPUT(y)
y = AND(a, ghost)
`,
			wantCheck: "undriven",
			wantGate:  "ghost",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Submit(ctx, client.JobRequest{Op: client.OpAnalyze, Bench: tc.bench, Name: tc.name})
			if err == nil {
				t.Fatal("invalid netlist accepted")
			}
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) {
				t.Fatalf("error is not an *client.APIError: %v", err)
			}
			if apiErr.Status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", apiErr.Status)
			}
			if !strings.Contains(apiErr.Body.Error, "fails lint") {
				t.Errorf("error message %q does not mention lint", apiErr.Body.Error)
			}
			found := false
			for _, d := range apiErr.Body.Diagnostics {
				if d.Check == tc.wantCheck && strings.Contains(d.Gate+" "+d.Msg, tc.wantGate) {
					found = true
					if d.Severity != "error" {
						t.Errorf("diagnostic %+v: severity %q, want error", d, d.Severity)
					}
					if d.Msg == "" {
						t.Errorf("diagnostic %+v has no message", d)
					}
				}
			}
			if !found {
				t.Errorf("no %q diagnostic naming %q in %+v", tc.wantCheck, tc.wantGate, apiErr.Body.Diagnostics)
			}
		})
	}
}

// TestE2EMonteCarloAndList covers the montecarlo op end-to-end plus the
// list endpoint.
func TestE2EMonteCarloAndList(t *testing.T) {
	c, _ := startService(t)
	ctx := ctxT(t)

	st, err := c.Run(ctx, client.JobRequest{
		Op:       client.OpMonteCarlo,
		Generate: "alu1",
		Samples:  2000,
		Seed:     42,
		Workers:  1,
	})
	if err != nil {
		t.Fatalf("run montecarlo: %v", err)
	}
	got, err := st.MonteCarlo()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	d, err := repro.Generate("alu1")
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	want, err := d.MonteCarloOpts(2000, 42, repro.RunOptions{Workers: 1})
	if err != nil {
		t.Fatalf("direct montecarlo: %v", err)
	}
	if got.Mean != want.Mean || got.Sigma != want.Sigma {
		t.Fatalf("montecarlo differs: (%v, %v) vs (%v, %v)", got.Mean, got.Sigma, want.Mean, want.Sigma)
	}

	jobsList, err := c.Jobs(ctx)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(jobsList) != 1 || jobsList[0].ID != st.ID {
		t.Fatalf("list = %+v, want exactly the montecarlo job", jobsList)
	}
}
