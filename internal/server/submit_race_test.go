package server

import (
	"sync"
	"testing"

	"repro/client"
)

// TestE2EConcurrentSubmitsReportFirstAttempt drives many clients
// submitting the same fast job at once. A worker can start a job before
// the submit handler returns; if the handler registered the job's meta
// only after enqueuing, it overwrote the attempt counter the start
// transition had already bumped, and the finished job reported attempt
// 0. Every finished job ran exactly once, so each must say attempt 1.
func TestE2EConcurrentSubmitsReportFirstAttempt(t *testing.T) {
	c, _ := startService(t)
	ctx := ctxT(t)
	const clients, perClient = 8, 150
	req := client.JobRequest{Op: client.OpWNSSPath, Generate: "alu1", Lambda: 3}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		bad  = map[int]int{}
		errs []error
	)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				st, err := c.Run(ctx, req)
				mu.Lock()
				switch {
				case err != nil:
					errs = append(errs, err)
				case st.Attempt != 1:
					bad[st.Attempt]++
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		t.Fatalf("%d runs failed, first: %v", len(errs), errs[0])
	}
	if len(bad) > 0 {
		t.Fatalf("finished jobs reporting an attempt other than 1 (attempt: count): %v", bad)
	}
}
