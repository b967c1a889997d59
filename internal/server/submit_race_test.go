package server

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/client"
	"repro/internal/journal"
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

// TestChaosConcurrentIdempotencyKey sends rounds of concurrent submits
// that share a fresh Idempotency-Key. The first submit reserves the key
// before it resolves, journals and enqueues; the others wait for that
// admission and answer with its job. So every round yields one job ID,
// and the journal holds one submit record per key.
func TestChaosConcurrentIdempotencyKey(t *testing.T) {
	const rounds, perKey = 200, 4
	jp := filepath.Join(t.TempDir(), "jobs.journal")
	srv, ts, _ := newDurable(t, Config{JournalPath: jp, NoSync: true})
	req := client.JobRequest{Op: client.OpWNSSPath, Generate: "alu1", Lambda: 3}
	split := 0
	for r := 0; r < rounds; r++ {
		key := fmt.Sprintf("idem-race-%d", r)
		ids := make([]string, perKey)
		codes := make([]int, perKey)
		var wg sync.WaitGroup
		for i := range ids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, st := postJob(t, ts, key, req)
				codes[i], ids[i] = resp.StatusCode, st.ID
			}()
		}
		wg.Wait()
		for i, code := range codes {
			if code/100 != 2 {
				t.Fatalf("round %d: submit %d answered HTTP %d", r, i, code)
			}
			if ids[i] != ids[0] {
				split++
				t.Errorf("round %d: one key, job IDs %v", r, ids)
				break
			}
		}
	}
	interrupt(t, srv, ts)
	if split > 0 {
		t.Fatalf("%d of %d rounds enqueued more than one job for one key", split, rounds)
	}

	jnl, recs, err := journal.Open(jp, journal.Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer jnl.Close()
	submits := map[string]int{}
	for _, rec := range recs {
		if rec.Type == journal.TypeSubmit {
			submits[rec.IdemKey]++
		}
	}
	if len(submits) != rounds {
		t.Errorf("journal holds submits for %d keys, want %d", len(submits), rounds)
	}
	for key, n := range submits {
		if n != 1 {
			t.Errorf("key %s: %d journal submit records, want 1", key, n)
		}
	}
}
