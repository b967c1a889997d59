package server

// The multi-node chaos test: a real coordinator process plus two real
// worker processes, with the worker holding the optimizer's lease
// SIGKILLed mid-StatisticalGreedy. The lease must expire, fail over to
// the surviving worker with the dead one's checkpoint, and the job must
// finish with a sizing vector bit-identical to an uninterrupted
// single-process library run. Wired into CI as `make cluster-e2e`.

import (
	"context"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/client"
)

var grantedRe = regexp.MustCompile(`sstad_cluster_leases_granted_total\{worker="([^"]+)"\} ([0-9]+)`)

// scrapeMetrics fetches the coordinator's Prometheus exposition.
func scrapeMetrics(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatalf("scrape metrics: %v", err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

// leaseHolders parses per-worker grant counts out of the exposition.
func leaseHolders(metrics string) map[string]int {
	out := map[string]int{}
	for _, m := range grantedRe.FindAllStringSubmatch(metrics, -1) {
		var n int
		fmt.Sscanf(m[2], "%d", &n)
		out[m[1]] = n
	}
	return out
}

func TestClusterE2EKillWorkerFailsOverBitExact(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess cluster e2e skipped in -short mode")
	}
	bin := buildSstad(t)
	jp := filepath.Join(t.TempDir(), "jobs.journal")
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	// Coordinator: short lease TTL so failover lands within seconds, and
	// the checkpoint path slowed so the SIGKILL reliably hits mid-run
	// (the injection site is synchronous with worker heartbeat POSTs).
	coordAddr := freeAddr(t)
	coord := startSstad(t, bin, coordAddr,
		"-cluster", "-journal", jp, "-lease-ttl", "1s",
		"-inject", "server.checkpoint=150ms")
	defer func() {
		_ = coord.Process.Kill()
		_ = coord.Wait()
	}()

	workers := map[string]*exec.Cmd{}
	for _, name := range []string{"w1", "w2"} {
		proc := startSstad(t, bin, freeAddr(t),
			"-worker", "-coordinator", "http://"+coordAddr, "-node-id", name)
		workers[name] = proc
		t.Cleanup(func() {
			_ = proc.Process.Kill()
			_ = proc.Wait()
		})
	}

	c := client.New("http://"+coordAddr,
		client.WithRetry(client.RetryPolicy{BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Seed: 1}))
	req := client.JobRequest{
		Op: client.OpOptimize, Generate: "alu2",
		Lambda: 9, Workers: 1, MaxIters: 12,
	}
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Wait until the job has streamed at least two checkpoints back to
	// the coordinator, then identify which worker holds the lease.
	var holder string
	for holder == "" {
		js, err := c.Job(ctx, st.ID)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		if js.Terminal() {
			t.Fatalf("job finished (%s) before the kill; injection did not slow it", js.State)
		}
		if js.Progress != nil && js.Progress.Iter >= 2 {
			for w, n := range leaseHolders(scrapeMetrics(t, coordAddr)) {
				if n > 0 {
					holder = w
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	victim := workers[holder]
	if victim == nil {
		t.Fatalf("lease holder %q is not a worker this test started", holder)
	}
	t.Logf("SIGKILLing lease holder %s mid-optimization", holder)
	if err := victim.Process.Kill(); err != nil { // SIGKILL
		t.Fatalf("kill -9 %s: %v", holder, err)
	}
	_ = victim.Wait()

	// The lease expires, the unit re-pends with the dead worker's last
	// checkpoint, and the survivor finishes the job.
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("wait after kill: %v", err)
	}
	if final.State != "done" {
		t.Fatalf("job state after failover = %s (err %q), want done", final.State, final.Error)
	}
	got, err := final.Optimize()
	if err != nil {
		t.Fatalf("decode result: %v", err)
	}

	// Uninterrupted single-process reference.
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
			t.Fatalf("failover diverged from uninterrupted run at gate %d: size %d vs %d",
				i, got.Sizes[i], wantSizes[i])
		}
	}
	if got.Iterations != want.Iterations || got.StoppedBy != want.StoppedBy ||
		got.SigmaAfter != want.SigmaAfter || got.MeanAfter != want.MeanAfter {
		t.Fatalf("failover result differs from uninterrupted:\ncluster: %+v\ndirect:  %+v", got, want)
	}

	// The coordinator's metrics must record the migration: the expired
	// lease, and a grant to the surviving worker.
	metrics := scrapeMetrics(t, coordAddr)
	if !regexp.MustCompile(`sstad_cluster_leases_expired_total [1-9]`).MatchString(metrics) {
		t.Fatal("metrics do not record the expired lease")
	}
	grants := leaseHolders(metrics)
	survivors := 0
	for w, n := range grants {
		if w != holder && n > 0 {
			survivors++
		}
	}
	if survivors == 0 {
		t.Fatalf("no surviving worker was granted the re-lease: %v", grants)
	}
}
