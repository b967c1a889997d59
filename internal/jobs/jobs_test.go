package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func waitDone(t *testing.T, q *Queue, id string) Snapshot {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s, err := q.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v (state %s)", id, err, s.State)
	}
	return s
}

func TestSubmitRunsFIFO(t *testing.T) {
	q := New(Options{Workers: 1})
	defer q.Shutdown(context.Background())
	var mu sync.Mutex
	var order []int
	ids := make([]string, 5)
	for i := 0; i < 5; i++ {
		i := i
		id, err := q.Submit(func(ctx context.Context) (any, error) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return i * 10, nil
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		s := waitDone(t, q, id)
		if s.State != StateDone {
			t.Fatalf("job %s state %s, err %v", id, s.State, s.Err)
		}
		if s.Result.(int) != i*10 {
			t.Fatalf("job %d result %v", i, s.Result)
		}
		if s.Started.Before(s.Created) || s.Finished.Before(s.Started) {
			t.Fatalf("timestamps out of order: %+v", s)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range order {
		if v != i {
			t.Fatalf("single worker did not run FIFO: %v", order)
		}
	}
}

func TestFailedJobState(t *testing.T) {
	q := New(Options{Workers: 1})
	defer q.Shutdown(context.Background())
	boom := errors.New("boom")
	id, err := q.Submit(func(ctx context.Context) (any, error) { return nil, boom }, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := waitDone(t, q, id)
	if s.State != StateFailed || !errors.Is(s.Err, boom) {
		t.Fatalf("state %s err %v", s.State, s.Err)
	}
}

func TestPanickingJobFailsWithoutKillingWorkers(t *testing.T) {
	q := New(Options{Workers: 1})
	defer q.Shutdown(context.Background())
	id1, _ := q.Submit(func(ctx context.Context) (any, error) { panic("kaboom") }, 0)
	s := waitDone(t, q, id1)
	if s.State != StateFailed {
		t.Fatalf("panic state %s", s.State)
	}
	// The worker must still be alive.
	id2, _ := q.Submit(func(ctx context.Context) (any, error) { return "ok", nil }, 0)
	if s := waitDone(t, q, id2); s.State != StateDone {
		t.Fatalf("worker died after panic: %s", s.State)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	q := New(Options{Workers: 1, Capacity: 2})
	defer q.Shutdown(context.Background())
	release := make(chan struct{})
	// Occupy the single worker.
	blocker, err := q.Submit(func(ctx context.Context) (any, error) {
		<-release
		return nil, nil
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the blocker is running so capacity applies to the rest.
	for {
		s, _ := q.Get(blocker)
		if s.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		if _, err := q.Submit(func(ctx context.Context) (any, error) { return nil, nil }, 0); err != nil {
			t.Fatalf("submit %d within capacity: %v", i, err)
		}
	}
	if _, err := q.Submit(func(ctx context.Context) (any, error) { return nil, nil }, 0); !errors.Is(err, ErrFull) {
		t.Fatalf("want ErrFull, got %v", err)
	}
	close(release)
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	q := New(Options{Workers: 1})
	defer q.Shutdown(context.Background())
	release := make(chan struct{})
	blocker, _ := q.Submit(func(ctx context.Context) (any, error) { <-release; return nil, nil }, 0)
	ran := false
	id, _ := q.Submit(func(ctx context.Context) (any, error) { ran = true; return nil, nil }, 0)
	if !q.Cancel(id) {
		t.Fatal("cancel of queued job reported failure")
	}
	s, err := q.Get(id)
	if err != nil || s.State != StateCancelled {
		t.Fatalf("queued job not cancelled immediately: %v %v", s.State, err)
	}
	close(release)
	waitDone(t, q, blocker)
	// Give the worker a chance to (incorrectly) pick the cancelled job.
	time.Sleep(20 * time.Millisecond)
	if ran {
		t.Fatal("cancelled job still ran")
	}
	if q.Cancel(id) {
		t.Fatal("second cancel of terminal job reported success")
	}
}

func TestCancelRunningJobViaContext(t *testing.T) {
	q := New(Options{Workers: 1})
	defer q.Shutdown(context.Background())
	started := make(chan struct{})
	id, _ := q.Submit(func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}, 0)
	<-started
	if !q.Cancel(id) {
		t.Fatal("cancel of running job reported failure")
	}
	s := waitDone(t, q, id)
	if s.State != StateCancelled || !errors.Is(s.Err, context.Canceled) {
		t.Fatalf("state %s err %v", s.State, s.Err)
	}
}

func TestDeadlineCancelsJob(t *testing.T) {
	q := New(Options{Workers: 1})
	defer q.Shutdown(context.Background())
	id, _ := q.Submit(func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}, 10*time.Millisecond)
	s := waitDone(t, q, id)
	if s.State != StateCancelled || !errors.Is(s.Err, context.DeadlineExceeded) {
		t.Fatalf("state %s err %v", s.State, s.Err)
	}
}

func TestIgnoredContextStillReportsCancellation(t *testing.T) {
	q := New(Options{Workers: 1})
	defer q.Shutdown(context.Background())
	started := make(chan struct{})
	proceed := make(chan struct{})
	id, _ := q.Submit(func(ctx context.Context) (any, error) {
		close(started)
		<-proceed // ignores ctx entirely
		return "result computed after cancel", nil
	}, 0)
	<-started
	q.Cancel(id)
	close(proceed)
	s := waitDone(t, q, id)
	if s.State != StateCancelled {
		t.Fatalf("ctx-ignoring job reported %s, want cancelled", s.State)
	}
}

func TestRetentionGC(t *testing.T) {
	q := New(Options{Workers: 1, Retention: time.Minute})
	defer q.Shutdown(context.Background())
	id, _ := q.Submit(func(ctx context.Context) (any, error) { return nil, nil }, 0)
	waitDone(t, q, id)
	// Move the clock past the retention window; the next Submit GCs.
	q.mu.Lock()
	q.now = func() time.Time { return time.Now().Add(2 * time.Minute) }
	q.mu.Unlock()
	id2, _ := q.Submit(func(ctx context.Context) (any, error) { return nil, nil }, 0)
	waitDone(t, q, id2)
	if _, err := q.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired job still retained: %v", err)
	}
	if _, err := q.Get(id2); err != nil {
		t.Fatalf("fresh job collected: %v", err)
	}
}

func TestMaxFinishedGC(t *testing.T) {
	q := New(Options{Workers: 1, MaxFinished: 2})
	defer q.Shutdown(context.Background())
	var ids []string
	for i := 0; i < 4; i++ {
		id, err := q.Submit(func(ctx context.Context) (any, error) { return nil, nil }, 0)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, q, id)
		ids = append(ids, id)
	}
	// One more submit triggers GC down to MaxFinished.
	id, _ := q.Submit(func(ctx context.Context) (any, error) { return nil, nil }, 0)
	waitDone(t, q, id)
	if _, err := q.Get(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatal("oldest finished job survived MaxFinished GC")
	}
}

func TestShutdownCancelsEverything(t *testing.T) {
	q := New(Options{Workers: 1})
	started := make(chan struct{})
	running, _ := q.Submit(func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}, 0)
	<-started
	queued, _ := q.Submit(func(ctx context.Context) (any, error) { return nil, nil }, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, id := range []string{running, queued} {
		s, err := q.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if s.State != StateCancelled {
			t.Fatalf("job %s state %s after shutdown", id, s.State)
		}
	}
	if _, err := q.Submit(func(ctx context.Context) (any, error) { return nil, nil }, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after shutdown: %v", err)
	}
	if err := q.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown not idempotent: %v", err)
	}
}

func TestDepthAndCounts(t *testing.T) {
	q := New(Options{Workers: 1})
	defer q.Shutdown(context.Background())
	release := make(chan struct{})
	blocker, _ := q.Submit(func(ctx context.Context) (any, error) { <-release; return nil, nil }, 0)
	for {
		s, _ := q.Get(blocker)
		if s.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	q.Submit(func(ctx context.Context) (any, error) { return nil, nil }, 0)
	queued, running := q.Depth()
	if queued != 1 || running != 1 {
		t.Fatalf("depth = (%d, %d), want (1, 1)", queued, running)
	}
	close(release)
}

func TestConcurrentSubmitWaitStress(t *testing.T) {
	q := New(Options{Workers: 4, Capacity: 256})
	defer q.Shutdown(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, err := q.Submit(func(ctx context.Context) (any, error) {
				return fmt.Sprintf("r%d", i), nil
			}, 0)
			if err != nil {
				t.Error(err)
				return
			}
			s := waitDone(t, q, id)
			if s.State != StateDone || s.Result.(string) != fmt.Sprintf("r%d", i) {
				t.Errorf("job %d: %+v", i, s)
			}
		}()
	}
	wg.Wait()
	if n := len(q.List()); n != 64 {
		t.Fatalf("retained %d jobs, want 64", n)
	}
}

func TestWaitTimeoutReturnsSnapshot(t *testing.T) {
	q := New(Options{Workers: 1})
	defer q.Shutdown(context.Background())
	release := make(chan struct{})
	id, _ := q.Submit(func(ctx context.Context) (any, error) { <-release; return nil, nil }, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	s, err := q.Wait(ctx, id)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if s.State.Terminal() {
		t.Fatalf("job should still be live, state %s", s.State)
	}
	close(release)
}

func TestGetUnknownJob(t *testing.T) {
	q := New(Options{Workers: 1})
	defer q.Shutdown(context.Background())
	if _, err := q.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if _, err := q.Wait(context.Background(), "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if q.Cancel("nope") {
		t.Fatal("cancel of unknown job reported success")
	}
}
