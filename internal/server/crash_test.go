package server

// The subprocess chaos test: a real sstad binary is started with a
// journal, SIGKILLed mid-optimization (no graceful shutdown, no
// deferred cleanup — the closest a test gets to a power cut), and
// restarted on the same journal. The recovered job must finish with a
// sizing vector bit-identical to an uninterrupted library run.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro"
	"repro/client"
)

// buildSstad compiles the daemon once into the test's temp dir.
func buildSstad(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sstad")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/sstad")
	cmd.Dir = "../.." // repo root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build sstad: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves an ephemeral localhost port and releases it for the
// daemon to claim.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startSstad launches the binary and waits for /healthz.
func startSstad(t *testing.T, bin, addr string, extraArgs ...string) *exec.Cmd {
	t.Helper()
	args := append([]string{"-addr", addr, "-workers", "1"}, extraArgs...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start sstad: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	_ = cmd.Process.Kill()
	_ = cmd.Wait()
	t.Fatalf("sstad on %s never became healthy", addr)
	return nil
}

// TestCrashKillDashNineResumesBitExact is the end-to-end acceptance
// run: kill -9 the daemon mid-StatisticalGreedy, restart it on the same
// journal, and require the resumed job's sizing vector to be
// bit-identical to an uninterrupted run's.
func TestCrashKillDashNineResumesBitExact(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test skipped in -short mode")
	}
	bin := buildSstad(t)
	jp := filepath.Join(t.TempDir(), "jobs.journal")
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	// Phase A: daemon with the checkpoint path slowed to ~150ms per
	// iteration, so SIGKILL deterministically lands mid-run.
	addrA := freeAddr(t)
	procA := startSstad(t, bin, addrA,
		"-journal", jp, "-inject", "server.checkpoint=150ms")
	cA := client.New("http://"+addrA,
		client.WithRetry(client.RetryPolicy{BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Seed: 1}))

	req := client.JobRequest{
		Op: client.OpOptimize, Generate: "alu2",
		Lambda: 9, Workers: 1, MaxIters: 12,
	}
	st, err := cA.Submit(ctx, req)
	if err != nil {
		_ = procA.Process.Kill()
		_ = procA.Wait()
		t.Fatalf("submit: %v", err)
	}
	// Wait until at least two checkpoints are journaled, then pull the
	// power: SIGKILL, no drain, no flushing beyond the journal's own
	// per-append fsync.
	for {
		js, err := cA.Job(ctx, st.ID)
		if err != nil {
			_ = procA.Process.Kill()
			_ = procA.Wait()
			t.Fatalf("poll: %v", err)
		}
		if js.Terminal() {
			_ = procA.Process.Kill()
			_ = procA.Wait()
			t.Fatalf("job finished (%s) before the kill; injection did not slow it", js.State)
		}
		if js.Progress != nil && js.Progress.Iter >= 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := procA.Process.Kill(); err != nil { // SIGKILL
		t.Fatalf("kill -9: %v", err)
	}
	_ = procA.Wait()

	// Phase B: restart on the same journal (no injection this time) and
	// let recovery finish the job.
	addrB := freeAddr(t)
	procB := startSstad(t, bin, addrB, "-journal", jp)
	defer func() {
		_ = procB.Process.Kill()
		_ = procB.Wait()
	}()
	cB := client.New("http://"+addrB,
		client.WithRetry(client.RetryPolicy{BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Seed: 1}))

	final, err := cB.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("wait after restart: %v", err)
	}
	if final.State != "done" {
		t.Fatalf("recovered job state = %s (err %q), want done", final.State, final.Error)
	}
	if final.Attempt != 2 {
		t.Fatalf("recovered job attempt = %d, want 2 (pre-kill + post-restart)", final.Attempt)
	}
	got, err := final.Optimize()
	if err != nil {
		t.Fatalf("decode result: %v", err)
	}

	// The uninterrupted reference, straight through the library.
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
			t.Fatalf("kill -9 resume diverged from uninterrupted run at gate %d: size %d vs %d",
				i, got.Sizes[i], wantSizes[i])
		}
	}
	if got.Iterations != want.Iterations || got.StoppedBy != want.StoppedBy ||
		got.SigmaAfter != want.SigmaAfter || got.MeanAfter != want.MeanAfter {
		t.Fatalf("resumed result differs from uninterrupted:\nresumed: %+v\ndirect:  %+v", got, want)
	}
}
