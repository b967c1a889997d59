package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/client"
	"repro/internal/cluster"
	"repro/internal/designcache"
	"repro/internal/oprun"
)

// startCoordinator spins a cluster coordinator behind httptest and
// nWorkers in-process worker replicas against it — the full multi-node
// stack minus the sockets-per-process.
func startCoordinator(t *testing.T, cfg Config, nWorkers int) (*client.Client, *Server, string) {
	t.Helper()
	cfg.Cluster = true
	if cfg.JobWorkers == 0 {
		cfg.JobWorkers = 4
	}
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = 2 * time.Minute
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < nWorkers; i++ {
		w, err := cluster.NewWorker(cluster.WorkerOptions{
			Coordinator: ts.URL,
			ID:          fmt.Sprintf("w%d", i+1),
			Poll:        200 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("NewWorker: %v", err)
		}
		go w.Run(ctx)
	}
	t.Cleanup(func() {
		cancel()
		ts.Close()
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		srv.Shutdown(sctx)
	})
	return client.New(ts.URL), srv, ts.URL
}

// TestClusterMonteCarloShardedBitIdentical is the headline shard-merge
// guarantee: a Monte-Carlo job split across two workers produces, after
// the coordinator's merge, bit-for-bit the payload of the same request
// on a single-node server.
func TestClusterMonteCarloShardedBitIdentical(t *testing.T) {
	req := client.JobRequest{
		Op: client.OpMonteCarlo, Generate: "c432",
		Samples: 3000, Seed: 42, Workers: 1,
		YieldPeriods: []float64{1500},
	}

	// Single-node reference.
	single, _ := startService(t)
	ctx := ctxT(t)
	refSt, err := single.Run(ctx, req)
	if err != nil || refSt.State != "done" {
		t.Fatalf("single-node run: %v (state %s, err %s)", err, refSt.State, refSt.Error)
	}
	ref, err := refSt.MonteCarlo()
	if err != nil {
		t.Fatalf("decode reference: %v", err)
	}

	// Clustered: 500 trials per shard -> 6 units over 2 workers.
	c, srv, _ := startCoordinator(t, Config{MCShardTrials: 500}, 2)
	st, err := c.Run(ctx, req)
	if err != nil || st.State != "done" {
		t.Fatalf("cluster run: %v (state %s, err %s)", err, st.State, st.Error)
	}
	got, err := st.MonteCarlo()
	if err != nil {
		t.Fatalf("decode cluster result: %v", err)
	}

	if got.Mean != ref.Mean || got.Sigma != ref.Sigma || got.NominalDelay != ref.NominalDelay {
		t.Fatalf("sharded moments differ: cluster (%v, %v) vs single (%v, %v)",
			got.Mean, got.Sigma, ref.Mean, ref.Sigma)
	}
	if !equalSlices(got.PDFX, ref.PDFX) || !equalSlices(got.PDFY, ref.PDFY) {
		t.Fatal("sharded PDF differs from single-node")
	}
	if len(got.Yields) != 1 || got.Yields[0] != ref.Yields[0] {
		t.Fatalf("sharded yields differ: %v vs %v", got.Yields, ref.Yields)
	}

	// Both workers actually participated and the job really sharded.
	ps := srv.pool.Stats()
	if len(ps.Granted) < 2 {
		t.Fatalf("expected both workers to hold leases, got %v", ps.Granted)
	}
	var total uint64
	for _, n := range ps.Granted {
		total += n
	}
	if total != 6 {
		t.Fatalf("lease count = %d, want 6 shards", total)
	}
}

// TestClusterWhatIfShardedBitIdentical: a whatif candidate set sharded
// across workers merges to exactly the direct WhatIfBatch answer.
func TestClusterWhatIfShardedBitIdentical(t *testing.T) {
	d, err := repro.Generate("c432")
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	path := d.WNSSPath(3)
	if len(path) < 5 {
		t.Fatalf("c432 WNSS path too short: %d", len(path))
	}
	cands := make([][]client.Edit, 5)
	for i := range cands {
		cands[i] = []client.Edit{{Gate: path[i], Size: 2}}
	}

	want, err := oprun.WhatIfCandidates(d, cands, repro.RunOptions{Workers: 1})
	if err != nil {
		t.Fatalf("direct whatif: %v", err)
	}

	c, _, _ := startCoordinator(t, Config{WhatIfShardSize: 2}, 2) // 5 cands -> 3 shards
	st, err := c.Run(ctxT(t), client.JobRequest{
		Op: client.OpWhatIf, Generate: "c432", Workers: 1, Candidates: cands,
	})
	if err != nil || st.State != "done" {
		t.Fatalf("cluster whatif: %v (state %s, err %s)", err, st.State, st.Error)
	}
	got, err := st.WhatIf()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got.Reports) != len(want.Reports) {
		t.Fatalf("report count %d, want %d", len(got.Reports), len(want.Reports))
	}
	for i := range want.Reports {
		if got.Reports[i] != want.Reports[i] {
			t.Fatalf("report %d differs: %+v vs %+v", i, got.Reports[i], want.Reports[i])
		}
	}
}

// TestClusterOptimizeMatchesDirect: a remote optimize lands on exactly
// the sizing vector (and moments) of the direct library call.
func TestClusterOptimizeMatchesDirect(t *testing.T) {
	c, _, _ := startCoordinator(t, Config{}, 1)
	req := client.JobRequest{
		Op: client.OpOptimize, Generate: "c432", Lambda: 3, Workers: 1, MaxIters: 4,
	}
	st, err := c.Run(ctxT(t), req)
	if err != nil || st.State != "done" {
		t.Fatalf("cluster optimize: %v (state %s, err %s)", err, st.State, st.Error)
	}
	got, err := st.Optimize()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	d, _ := repro.Generate("c432")
	dd := d.Clone()
	r, err := dd.Optimize(3, repro.RunOptions{Workers: 1, MaxIters: 4})
	if err != nil {
		t.Fatalf("direct optimize: %v", err)
	}
	if got.MeanAfter != r.MeanAfter || got.SigmaAfter != r.SigmaAfter ||
		got.AreaAfter != r.AreaAfter || got.Iterations != r.Iterations {
		t.Fatalf("remote optimize differs: %+v vs direct %+v", got, r)
	}
	want := dd.Sizes()
	if len(got.Sizes) != len(want) {
		t.Fatalf("sizes length %d, want %d", len(got.Sizes), len(want))
	}
	for i := range want {
		if got.Sizes[i] != want[i] {
			t.Fatalf("size[%d] = %d, want %d", i, got.Sizes[i], want[i])
		}
	}
}

// TestClusterFailoverResumesBitExact is the lease-migration guarantee:
// a worker that checkpoints, then dies silently, loses its lease on TTL
// expiry; the successor resumes from the streamed checkpoint and the
// final sizing vector is bit-identical to an uninterrupted run.
func TestClusterFailoverResumesBitExact(t *testing.T) {
	cfg := Config{LeaseTTL: 500 * time.Millisecond, LeaseScanInterval: time.Hour}
	// No real workers yet: the doomed one is driven by hand.
	c, srv, base := startCoordinator(t, cfg, 0)
	ctx := ctxT(t)

	req := client.JobRequest{
		Op: client.OpOptimize, Generate: "c432", Lambda: 3, Workers: 1, MaxIters: 6,
	}
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Doomed worker: acquire the lease over HTTP, run the optimizer
	// locally, stream the first two checkpoints, then vanish without
	// completing — exactly what a SIGKILL after iteration 2 looks like
	// to the coordinator.
	lease := acquireLease(t, base, "doomed")
	if lease.Job != st.ID {
		t.Fatalf("lease job %s, want %s", lease.Job, st.ID)
	}
	d, _ := repro.Generate("c432")
	runCtx, stopRun := context.WithCancel(ctx)
	seen := 0
	_, runErr := oprun.Run(runCtx, req, d, nil, func(cp repro.OptCheckpoint) {
		if seen++; seen > 2 {
			stopRun() // die after streaming two checkpoints
			return
		}
		b, _ := json.Marshal(cp)
		postJSON(t, base+"/v1/leases/"+lease.ID+"/heartbeat",
			cluster.HeartbeatRequest{Iter: cp.Iter, Cost: cp.Cost, Checkpoint: b}, http.StatusOK)
	})
	if runErr == nil {
		t.Fatal("doomed run finished before it could die; raise MaxIters")
	}

	// TTL passes; the coordinator reaps the lease and re-pends the unit.
	deadline := time.Now().Add(10 * time.Second)
	for srv.pool.Stats().Pending == 0 {
		if time.Now().After(deadline) {
			t.Fatal("expired unit never returned to pending")
		}
		time.Sleep(50 * time.Millisecond)
		srv.pool.ExpireNow()
	}

	// Successor worker picks it up — with the dead worker's checkpoint —
	// and finishes the job.
	w, err := cluster.NewWorker(cluster.WorkerOptions{Coordinator: base, ID: "successor", Poll: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	go w.Run(wctx)

	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != "done" {
		t.Fatalf("job state %s (err %s), want done", final.State, final.Error)
	}
	got, err := final.Optimize()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	dd, _ := repro.Generate("c432")
	ddc := dd.Clone()
	if _, err := ddc.Optimize(3, repro.RunOptions{Workers: 1, MaxIters: 6}); err != nil {
		t.Fatalf("direct optimize: %v", err)
	}
	want := ddc.Sizes()
	if len(got.Sizes) != len(want) {
		t.Fatalf("sizes length %d, want %d", len(got.Sizes), len(want))
	}
	for i := range want {
		if got.Sizes[i] != want[i] {
			t.Fatalf("resumed size[%d] = %d, want %d — failover was not bit-exact", i, got.Sizes[i], want[i])
		}
	}
	if ps := srv.pool.Stats(); ps.Expired != 1 {
		t.Fatalf("expired leases = %d, want 1", ps.Expired)
	}
}

// TestClusterDesignReplication: an inline netlist reaches workers by
// content hash, and the design endpoint serves text that re-hashes to
// its address.
func TestClusterDesignReplication(t *testing.T) {
	c, _, base := startCoordinator(t, Config{}, 1)
	ctx := ctxT(t)

	d, _ := repro.Generate("alu2")
	var buf bytes.Buffer
	if err := d.SaveBench(&buf); err != nil {
		t.Fatalf("save bench: %v", err)
	}
	st, err := c.Run(ctx, client.JobRequest{
		Op: client.OpAnalyze, Bench: buf.String(), Name: "alu2-inline", Workers: 1,
	})
	if err != nil || st.State != "done" {
		t.Fatalf("inline analyze via cluster: %v (state %s, err %s)", err, st.State, st.Error)
	}
	if st.DesignHash == "" {
		t.Fatal("job has no design hash")
	}

	// The replication endpoint must serve text hashing to the address.
	resp, err := http.Get(base + "/v1/designs/" + st.DesignHash)
	if err != nil {
		t.Fatalf("GET design: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET design status %d", resp.StatusCode)
	}
	// Verify the text the same way a worker replica does: re-parse it
	// (default library, like any .bench replication) and re-derive its
	// content address, which covers netlist and library fingerprint.
	rd, err := repro.LoadBench(bytes.NewReader(body), "replicated")
	if err != nil {
		t.Fatalf("re-parse served design: %v", err)
	}
	if got, err := designcache.HashDesign(rd); err != nil || got != st.DesignHash {
		t.Fatalf("served design hashes to %s (err %v), want %s", got, err, st.DesignHash)
	}

	if resp, err := http.Get(base + "/v1/designs/deadbeef"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown design hash status %d, want 404", resp.StatusCode)
		}
	}
}

// TestClusterStaleCompletionRejected: the wire-level fencing — a
// completion for a reassigned lease gets 410 Gone and is discarded.
func TestClusterStaleCompletionRejected(t *testing.T) {
	cfg := Config{LeaseTTL: 200 * time.Millisecond, LeaseScanInterval: time.Hour}
	c, srv, base := startCoordinator(t, cfg, 0)
	ctx := ctxT(t)

	st, err := c.Submit(ctx, client.JobRequest{Op: client.OpWNSSPath, Generate: "alu2", Lambda: 3})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	stale := acquireLease(t, base, "slow")
	time.Sleep(250 * time.Millisecond)
	srv.pool.ExpireNow()

	// The unit is pending again; the slow worker's completion must bounce.
	postJSON(t, base+"/v1/leases/"+stale.ID+"/complete",
		cluster.CompleteRequest{Result: json.RawMessage(`{"gates":["bogus"]}`)}, http.StatusGone)

	fresh := acquireLease(t, base, "fast")
	d, _ := repro.Generate("alu2")
	payload, err := oprun.Run(ctx, client.JobRequest{Op: client.OpWNSSPath, Generate: "alu2", Lambda: 3}, d, nil, nil)
	if err != nil {
		t.Fatalf("oprun: %v", err)
	}
	raw, _ := json.Marshal(payload)
	postJSON(t, base+"/v1/leases/"+fresh.ID+"/complete",
		cluster.CompleteRequest{Result: raw}, http.StatusOK)

	final, err := c.Wait(ctx, st.ID)
	if err != nil || final.State != "done" {
		t.Fatalf("wait: %v (state %s)", err, final.State)
	}
	path, err := final.WNSSPath()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(path.Gates) == 0 || path.Gates[0] == "bogus" {
		t.Fatalf("stale result leaked into the job: %v", path.Gates)
	}
}

func acquireLease(t *testing.T, base, worker string) *cluster.Lease {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		body, _ := json.Marshal(cluster.AcquireRequest{Worker: worker})
		resp, err := http.Post(base+"/v1/leases?wait=1s", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		if resp.StatusCode == http.StatusNoContent {
			resp.Body.Close()
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("acquire status %d", resp.StatusCode)
		}
		var lease cluster.Lease
		err = json.NewDecoder(resp.Body).Decode(&lease)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode lease: %v", err)
		}
		return &lease
	}
	t.Fatal("no lease became available")
	return nil
}

func postJSON(t *testing.T, url string, v any, wantStatus int) {
	t.Helper()
	body, _ := json.Marshal(v)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s status %d, want %d", url, resp.StatusCode, wantStatus)
	}
}

// TestTenantQuota429: the per-tenant token bucket rejects a burst over
// quota with 429 + Retry-After, without touching other tenants.
func TestTenantQuota429(t *testing.T) {
	srv, err := New(Config{JobWorkers: 2, TenantRate: 0.001, TenantBurst: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
	})

	submit := func(tenant string) *http.Response {
		body, _ := json.Marshal(client.JobRequest{Op: client.OpWNSSPath, Generate: "alu2", Lambda: 3})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	for i := 0; i < 2; i++ {
		if resp := submit("acme"); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status %d, want 202", i, resp.StatusCode)
		}
	}
	resp := submit("acme")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After")
	}
	// An unrelated tenant still has its full burst.
	if resp := submit("globex"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant status %d, want 202", resp.StatusCode)
	}

	// The throttle is visible per tenant in /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mb), `sstad_jobs_throttled_total{tenant="acme",reason="quota"} 1`) {
		t.Fatal("metrics missing the per-tenant throttle counter")
	}
	if !strings.Contains(string(mb), `sstad_jobs_admitted_total{tenant="globex",priority="normal"} 1`) {
		t.Fatal("metrics missing the per-tenant admission counter")
	}
}

// TestShedPriority pins the congestion-shedding thresholds.
func TestShedPriority(t *testing.T) {
	cases := []struct {
		prio   string
		queued int
		want   bool
	}{
		{client.PriorityHigh, 63, false},
		{client.PriorityLow, 31, false},
		{client.PriorityLow, 32, true},
		{client.PriorityNormal, 57, false},
		{client.PriorityNormal, 58, true},
		{"", 58, true}, // empty = normal
	}
	for _, tc := range cases {
		if got := shedPriority(tc.prio, tc.queued, 64); got != tc.want {
			t.Errorf("shedPriority(%q, %d, 64) = %v, want %v", tc.prio, tc.queued, got, tc.want)
		}
	}
}

// TestListPagination: GET /v1/jobs pages newest-first through the
// cursor, and the client's Jobs() helper reassembles the full list.
func TestListPagination(t *testing.T) {
	c, _ := startService(t)
	ctx := ctxT(t)
	var ids []string
	for i := 0; i < 7; i++ {
		st, err := c.Run(ctx, client.JobRequest{Op: client.OpWNSSPath, Generate: "alu2", Lambda: float64(i + 1)})
		if err != nil || st.State != "done" {
			t.Fatalf("job %d: %v (state %s)", i, err, st.State)
		}
		ids = append(ids, st.ID)
	}

	var paged []string
	cursor := ""
	pages := 0
	for {
		page, err := c.JobsPage(ctx, 3, cursor)
		if err != nil {
			t.Fatalf("JobsPage: %v", err)
		}
		pages++
		for _, st := range page.Jobs {
			paged = append(paged, st.ID)
		}
		if page.NextCursor == "" {
			break
		}
		if len(page.Jobs) != 3 {
			t.Fatalf("non-final page has %d jobs, want 3", len(page.Jobs))
		}
		cursor = page.NextCursor
	}
	if pages != 3 {
		t.Fatalf("paged in %d requests, want 3", pages)
	}
	if len(paged) != 7 {
		t.Fatalf("paged %d jobs, want 7", len(paged))
	}
	// Newest first, no duplicates, covering exactly the submitted set.
	for i := 0; i < len(paged)-1; i++ {
		if paged[i] <= paged[i+1] {
			t.Fatalf("page order broken at %d: %s then %s", i, paged[i], paged[i+1])
		}
	}
	if paged[0] != ids[6] || paged[6] != ids[0] {
		t.Fatalf("paged = %v, want %v reversed", paged, ids)
	}

	all, err := c.Jobs(ctx)
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	if len(all) != 7 {
		t.Fatalf("Jobs() returned %d, want 7", len(all))
	}

	// Bad limits are a 400, not a silent default.
	if _, err := c.JobsPage(ctx, 0, ""); err == nil {
		// limit 0 means "default" at the client layer; ensure server-side
		// garbage still rejects.
		resp, gerr := http.Get(c.BaseURL() + "/v1/jobs?limit=bogus")
		if gerr != nil {
			t.Fatalf("bad-limit GET: %v", gerr)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("limit=bogus status %d, want 400", resp.StatusCode)
		}
	}
}

// TestHealthzBuildInfo: /healthz carries role, node and build identity.
func TestHealthzBuildInfo(t *testing.T) {
	srv, err := New(Config{JobWorkers: 1, Node: "test-node"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
	})
	c := client.New(ts.URL)
	hz, err := c.Healthz(ctxT(t))
	if err != nil {
		t.Fatalf("Healthz: %v", err)
	}
	if hz.Status != "ok" || hz.Role != "single" || hz.Node != "test-node" {
		t.Fatalf("healthz = %+v", hz)
	}
	if hz.Revision == "" || hz.GoVersion == "" {
		t.Fatalf("healthz missing build identity: %+v", hz)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "sstad_build_info{") {
		t.Fatal("metrics missing sstad_build_info")
	}
}

// severingFront sits in front of the coordinator handler and aborts the
// first N SSE stream connections before any event is written, forcing
// client.Stream to reconnect while the job it is watching migrates
// between workers.
type severingFront struct {
	backend http.Handler
	mu      sync.Mutex
	severs  int
	streams int
}

func (p *severingFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/stream") {
		p.mu.Lock()
		p.streams++
		sever := p.severs > 0
		if sever {
			p.severs--
		}
		p.mu.Unlock()
		if sever {
			p.backend.ServeHTTP(&abortFirstWrite{ResponseWriter: w}, r)
			return
		}
	}
	p.backend.ServeHTTP(w, r)
}

func (p *severingFront) connects() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.streams
}

type abortFirstWrite struct{ http.ResponseWriter }

func (a *abortFirstWrite) Write([]byte) (int, error) { panic(http.ErrAbortHandler) }
func (a *abortFirstWrite) Flush() {
	if f, ok := a.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestClusterStreamAcrossWorkerFailover: a client.Stream watching a job
// survives severed SSE connections while the job's lease migrates from
// a dead worker to its successor, and still terminates on "done".
func TestClusterStreamAcrossWorkerFailover(t *testing.T) {
	srv, err := New(Config{Cluster: true, JobWorkers: 4, JobTimeout: 2 * time.Minute,
		LeaseTTL: 500 * time.Millisecond, LeaseScanInterval: time.Hour})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	front := &severingFront{backend: srv.Handler(), severs: 2}
	ts := httptest.NewServer(front)
	t.Cleanup(func() {
		ts.Close()
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		srv.Shutdown(sctx)
	})
	c := client.New(ts.URL, client.WithRetry(client.RetryPolicy{
		BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Seed: 1}))
	ctx := ctxT(t)

	req := client.JobRequest{Op: client.OpOptimize, Generate: "c432", Lambda: 3, Workers: 1, MaxIters: 6}
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Doomed worker: lease the unit, stream two checkpoints, fall silent.
	lease := acquireLease(t, ts.URL, "doomed")
	d, _ := repro.Generate("c432")
	runCtx, stopRun := context.WithCancel(ctx)
	seen := 0
	_, runErr := oprun.Run(runCtx, req, d, nil, func(cp repro.OptCheckpoint) {
		if seen++; seen > 2 {
			stopRun()
			return
		}
		b, _ := json.Marshal(cp)
		postJSON(t, ts.URL+"/v1/leases/"+lease.ID+"/heartbeat",
			cluster.HeartbeatRequest{Iter: cp.Iter, Cost: cp.Cost, Checkpoint: b}, http.StatusOK)
	})
	if runErr == nil {
		t.Fatal("doomed run finished before it could die; raise MaxIters")
	}

	// Attach the stream now, mid-failover: its first two connections are
	// severed by the front and must be transparently retried.
	var mu sync.Mutex
	var states []string
	type streamOut struct {
		final *client.JobStatus
		err   error
	}
	outc := make(chan streamOut, 1)
	go func() {
		s, serr := c.Stream(ctx, st.ID, func(js client.JobStatus) {
			mu.Lock()
			states = append(states, js.State)
			mu.Unlock()
		})
		outc <- streamOut{s, serr}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for srv.pool.Stats().Pending == 0 {
		if time.Now().After(deadline) {
			t.Fatal("expired unit never returned to pending")
		}
		time.Sleep(50 * time.Millisecond)
		srv.pool.ExpireNow()
	}
	w, err := cluster.NewWorker(cluster.WorkerOptions{Coordinator: ts.URL, ID: "successor", Poll: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	go w.Run(wctx)

	out := <-outc
	if out.err != nil {
		t.Fatalf("stream across failover: %v (states %v)", out.err, states)
	}
	if out.final == nil || out.final.State != "done" {
		t.Fatalf("stream final status = %+v, want done", out.final)
	}
	if n := front.connects(); n < 3 {
		t.Fatalf("stream connects = %d, want >= 3 (two severs + a surviving one)", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(states) == 0 || states[len(states)-1] != "done" {
		t.Fatalf("observed states %v, want a trailing done", states)
	}
}
