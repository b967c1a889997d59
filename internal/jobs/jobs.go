// Package jobs is the asynchronous execution layer of the sstad service:
// a bounded FIFO queue of long-running analysis/optimization functions,
// drained by a fixed pool of workers, with per-job context cancellation
// and deadlines, a queued/running/done/failed/cancelled lifecycle, and
// retention-based garbage collection of finished jobs.
//
// The package is engine-agnostic — a job is just a func(ctx) (any,
// error) — so it can queue every entry point the service exposes. It
// leans on internal/parallel only for worker-count resolution; the pool
// itself is a condition-variable FIFO drained by long-lived goroutines,
// because a service queue (unbounded lifetime, dynamic arrivals,
// cancellable entries) is a different shape than parallel's bounded
// fork-join helpers.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/parallel"
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Fn is the unit of work: it must honor ctx (the engines poll it at
// iteration/shard granularity) and return either a result or an error.
type Fn func(ctx context.Context) (any, error)

// Progress is a job's latest heartbeat: long-running work (the
// optimizers, via their checkpoint callbacks) reports its position
// through SetProgress, which both surfaces it to pollers and feeds the
// stall watchdog.
type Progress struct {
	Iter    int
	Cost    float64
	Updated time.Time
}

// Snapshot is an immutable copy of a job's state, safe to hold across
// queue operations.
type Snapshot struct {
	ID       string
	State    State
	Result   any
	Err      error
	Created  time.Time
	Started  time.Time // zero until the job leaves the queue
	Finished time.Time // zero until the job reaches a terminal state
	Progress *Progress // nil until the job first reports progress
}

var (
	// ErrFull is returned by Submit when the pending queue is at
	// capacity; callers (the HTTP layer) translate it to a 429.
	ErrFull = errors.New("jobs: queue full")
	// ErrClosed is returned by Submit after Shutdown.
	ErrClosed = errors.New("jobs: queue closed")
	// ErrNotFound is returned for unknown (or already collected) job IDs.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrExists is returned by SubmitOpts when the explicit ID is
	// already taken.
	ErrExists = errors.New("jobs: job ID already exists")
	// ErrStalled is the cancellation cause the watchdog attaches to a
	// running job whose progress heartbeat exceeded its stall deadline;
	// such jobs finish failed, not cancelled.
	ErrStalled = errors.New("jobs: job stalled")
)

// Options configures a Queue. The zero value is usable: one worker per
// CPU, capacity 64, 15-minute retention, no default deadline.
type Options struct {
	// Workers is the number of jobs that may run concurrently; <= 0
	// means one per available CPU (each job may itself fan out through
	// internal/parallel, so the service default keeps this small).
	Workers int
	// Capacity bounds the pending (queued, not yet running) jobs; <= 0
	// means 64. Submit returns ErrFull beyond it — backpressure instead
	// of unbounded memory growth.
	Capacity int
	// Retention is how long finished jobs stay queryable before GC;
	// <= 0 means 15 minutes.
	Retention time.Duration
	// MaxFinished additionally caps how many finished jobs are kept
	// (oldest collected first); <= 0 means 1024.
	MaxFinished int
	// DefaultTimeout, when > 0, is applied as a deadline to jobs
	// submitted without their own.
	DefaultTimeout time.Duration
	// OnTransition, when non-nil, is invoked synchronously (queue lock
	// released) whenever a job enters running or a terminal state: the
	// durability write-through hook. Two deliberate gaps: submission is
	// not reported (the submitter already holds the richer request
	// context), and Shutdown-induced cancellations are not reported,
	// because an interrupted job is not terminal from a durability
	// point of view — journal replay re-enqueues it on restart.
	OnTransition func(Snapshot)
	// WatchdogInterval is how often the stall watchdog scans running
	// jobs (<= 0 means 1 second). Only jobs submitted with a positive
	// StallTimeout are watched.
	WatchdogInterval time.Duration
}

func (o Options) capacity() int {
	if o.Capacity <= 0 {
		return 64
	}
	return o.Capacity
}

func (o Options) retention() time.Duration {
	if o.Retention <= 0 {
		return 15 * time.Minute
	}
	return o.Retention
}

func (o Options) maxFinished() int {
	if o.MaxFinished <= 0 {
		return 1024
	}
	return o.MaxFinished
}

func (o Options) watchdogInterval() time.Duration {
	if o.WatchdogInterval <= 0 {
		return time.Second
	}
	return o.WatchdogInterval
}

type job struct {
	id        string
	fn        Fn
	timeout   time.Duration
	stall     time.Duration // > 0: heartbeat deadline enforced while running
	state     State
	result    any
	err       error
	created   time.Time
	started   time.Time
	finished  time.Time
	heartbeat time.Time // started, then bumped by each SetProgress
	progress  *Progress
	cancel    context.CancelCauseFunc // non-nil while running
	done      chan struct{}           // closed on terminal transition
}

// Queue is the bounded FIFO job queue. Build with New, stop with
// Shutdown.
type Queue struct {
	opts Options

	mu      sync.Mutex
	cond    *sync.Cond // signalled on new pending work and on shutdown
	jobs    map[string]*job
	pending []*job // FIFO; may contain already-cancelled entries (skipped)
	seq     uint64
	queued  int // jobs in StateQueued (excludes cancelled-in-pending)
	active  int
	closed  bool

	baseCtx  context.Context
	baseStop context.CancelFunc
	wg       sync.WaitGroup
	now      func() time.Time // test seam
}

// New builds the queue and starts its workers.
func New(opts Options) *Queue {
	ctx, stop := context.WithCancel(context.Background())
	q := &Queue{
		opts:     opts,
		jobs:     make(map[string]*job),
		baseCtx:  ctx,
		baseStop: stop,
		now:      time.Now,
	}
	q.cond = sync.NewCond(&q.mu)
	workers := parallel.Resolve(opts.Workers)
	q.wg.Add(workers + 1)
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	go q.watchdog()
	return q
}

// Submit enqueues fn with an optional per-job timeout (0 falls back to
// Options.DefaultTimeout; negative means no deadline even if a default
// exists). It returns the new job's ID, or ErrFull/ErrClosed.
func (q *Queue) Submit(fn Fn, timeout time.Duration) (string, error) {
	return q.SubmitOpts(fn, SubmitOptions{Timeout: timeout})
}

// SubmitOptions parameterizes SubmitOpts. The zero value matches
// Submit(fn, 0).
type SubmitOptions struct {
	// ID, when non-empty, is the job's identity — journal replay uses
	// it to preserve IDs across restarts (SubmitOpts returns ErrExists
	// if it is taken). Empty allocates the next sequential ID.
	ID string
	// Timeout is the per-job deadline (0 falls back to
	// Options.DefaultTimeout; negative means none even if a default
	// exists).
	Timeout time.Duration
	// StallTimeout, when > 0, arms the heartbeat watchdog for this job:
	// while running, it must call SetProgress at least this often
	// (measured from start and from each heartbeat) or it is failed
	// with ErrStalled as the cause.
	StallTimeout time.Duration
}

// NewID allocates and returns the next job ID without enqueuing
// anything. Durable submitters reserve the ID first, journal the
// admission under it, then enqueue with SubmitOpts — so the journal
// never sees a record for an ID it cannot attribute.
func (q *Queue) NewID() string {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.seq++
	return fmt.Sprintf("j%06d", q.seq)
}

// SubmitOpts enqueues fn under o. It returns the job's ID, or
// ErrFull/ErrClosed/ErrExists.
func (q *Queue) SubmitOpts(fn Fn, o SubmitOptions) (string, error) {
	timeout := o.Timeout
	if timeout == 0 {
		timeout = q.opts.DefaultTimeout
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return "", ErrClosed
	}
	q.gcLocked()
	if q.queued >= q.opts.capacity() {
		return "", ErrFull
	}
	id := o.ID
	if id == "" {
		q.seq++
		id = fmt.Sprintf("j%06d", q.seq)
	} else {
		if _, taken := q.jobs[id]; taken {
			return "", fmt.Errorf("%w: %s", ErrExists, id)
		}
		// Keep fresh IDs ahead of every replayed one.
		var n uint64
		if _, err := fmt.Sscanf(id, "j%d", &n); err == nil && n > q.seq {
			q.seq = n
		}
	}
	j := &job{
		id:      id,
		fn:      fn,
		timeout: timeout,
		stall:   o.StallTimeout,
		state:   StateQueued,
		created: q.now(),
		done:    make(chan struct{}),
	}
	q.jobs[j.id] = j
	q.pending = append(q.pending, j)
	q.queued++
	q.cond.Signal()
	return j.id, nil
}

// notify delivers a transition snapshot to the observer. Callers must
// NOT hold q.mu (the observer does I/O — journal appends).
func (q *Queue) notify(sn Snapshot) {
	if q.opts.OnTransition != nil {
		q.opts.OnTransition(sn)
	}
}

func (q *Queue) worker() {
	defer q.wg.Done()
	q.mu.Lock()
	for {
		// Pop the first still-queued job; drop cancelled leftovers.
		var j *job
		for j == nil {
			for len(q.pending) == 0 && !q.closed {
				q.cond.Wait()
			}
			if len(q.pending) == 0 && q.closed {
				q.mu.Unlock()
				return
			}
			j = q.pending[0]
			q.pending = q.pending[1:]
			if j.state != StateQueued { // cancelled while waiting
				j = nil
			}
		}
		q.queued--
		q.active++
		j.state = StateRunning
		j.started = q.now()
		j.heartbeat = j.started
		// Layer a cancel-cause context (so the watchdog can attach
		// ErrStalled and Cancel can attach context.Canceled) under the
		// optional per-job deadline.
		cctx, cancelCause := context.WithCancelCause(q.baseCtx)
		ctx := cctx
		var cancelTimeout context.CancelFunc
		if j.timeout > 0 {
			ctx, cancelTimeout = context.WithTimeout(ctx, j.timeout)
		}
		j.cancel = cancelCause
		started := snapshotLocked(j)
		q.mu.Unlock()

		q.notify(started)

		result, err := safeRun(j.fn, ctx)
		// A function that ignored ctx but raced with cancellation should
		// still report the cancellation, not a half-baked success.
		if err == nil && ctx.Err() != nil {
			err = ctx.Err()
		}
		cause := context.Cause(ctx)
		if cancelTimeout != nil {
			cancelTimeout()
		}
		cancelCause(nil)

		q.mu.Lock()
		q.active--
		j.cancel = nil
		j.finished = q.now()
		switch {
		case err == nil:
			j.state = StateDone
			j.result = result
		case errors.Is(cause, ErrStalled):
			// Watchdog kill: the job did not make progress — a failure of
			// the work, not a caller's change of mind.
			j.state = StateFailed
			j.err = cause
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			j.state = StateCancelled
			j.err = err
		default:
			j.state = StateFailed
			j.err = err
		}
		close(j.done)
		// Shutdown-induced cancellations are interruptions, not outcomes:
		// suppressing the notification keeps them non-terminal in the
		// journal, so restart recovery re-enqueues them.
		suppress := q.closed && j.state == StateCancelled
		finished := snapshotLocked(j)
		q.mu.Unlock()

		if !suppress {
			q.notify(finished)
		}
		q.mu.Lock()
	}
}

// SetProgress records a heartbeat for a running job: pollers see the
// iteration/cost, and the stall watchdog's deadline resets. It reports
// whether the job exists and is currently running.
func (q *Queue) SetProgress(id string, iter int, cost float64) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok || j.state != StateRunning {
		return false
	}
	now := q.now()
	j.heartbeat = now
	j.progress = &Progress{Iter: iter, Cost: cost, Updated: now}
	return true
}

// watchdog periodically scans running jobs with a stall deadline and
// cancels (with ErrStalled as the cause) any whose heartbeat is older
// than its StallTimeout.
func (q *Queue) watchdog() {
	defer q.wg.Done()
	ticker := time.NewTicker(q.opts.watchdogInterval())
	defer ticker.Stop()
	for {
		select {
		case <-q.baseCtx.Done():
			return
		case <-ticker.C:
		}
		q.mu.Lock()
		now := q.now()
		for _, j := range q.jobs {
			if j.state != StateRunning || j.stall <= 0 || j.cancel == nil {
				continue
			}
			if idle := now.Sub(j.heartbeat); idle > j.stall {
				j.cancel(fmt.Errorf("%w: no progress heartbeat for %v (stall limit %v)",
					ErrStalled, idle.Round(time.Millisecond), j.stall))
			}
		}
		q.mu.Unlock()
	}
}

// safeRun confines a panicking job to a failed state instead of taking
// the whole service down.
func safeRun(fn Fn, ctx context.Context) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("jobs: job panicked: %v", r)
		}
	}()
	return fn(ctx)
}

// Get returns a snapshot of the job, or ErrNotFound.
func (q *Queue) Get(id string) (Snapshot, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	return snapshotLocked(j), nil
}

func snapshotLocked(j *job) Snapshot {
	sn := Snapshot{
		ID: j.id, State: j.state, Result: j.result, Err: j.err,
		Created: j.created, Started: j.started, Finished: j.finished,
	}
	if j.progress != nil {
		p := *j.progress
		sn.Progress = &p
	}
	return sn
}

// List returns snapshots of every retained job, newest first.
func (q *Queue) List() []Snapshot {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Snapshot, 0, len(q.jobs))
	for _, j := range q.jobs {
		out = append(out, snapshotLocked(j))
	}
	// Newest first by ID (IDs are a zero-padded sequence).
	sort.Slice(out, func(i, k int) bool { return out[i].ID > out[k].ID })
	return out
}

// Cancel requests cancellation: a queued job transitions to cancelled
// immediately (workers skip it); a running job has its context cancelled
// and transitions when the engine observes it. It reports whether the
// job existed and was not already terminal.
func (q *Queue) Cancel(id string) bool {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok || j.state.Terminal() {
		q.mu.Unlock()
		return false
	}
	var terminal *Snapshot
	switch j.state {
	case StateQueued:
		q.queued--
		j.state = StateCancelled
		j.err = context.Canceled
		j.finished = q.now()
		close(j.done)
		sn := snapshotLocked(j)
		terminal = &sn
	case StateRunning:
		if j.cancel != nil {
			j.cancel(context.Canceled)
		}
		// The worker observes the cancellation and notifies on the
		// terminal transition; nothing to report yet.
	}
	q.mu.Unlock()
	if terminal != nil {
		q.notify(*terminal)
	}
	return true
}

// Wait blocks until the job reaches a terminal state or ctx expires,
// returning the latest snapshot either way (with ctx's error on
// timeout, so long-pollers can report progress).
func (q *Queue) Wait(ctx context.Context, id string) (Snapshot, error) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return Snapshot{}, ErrNotFound
	}
	done := j.done
	q.mu.Unlock()
	select {
	case <-done:
		return q.Get(id)
	case <-ctx.Done():
		s, err := q.Get(id)
		if err != nil {
			return Snapshot{}, err
		}
		return s, ctx.Err()
	}
}

// Depth returns the pending and running job counts (the queue-depth
// metrics).
func (q *Queue) Depth() (queued, running int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queued, q.active
}

// gcLocked drops finished jobs past the retention window, and the oldest
// beyond MaxFinished. Callers hold q.mu.
func (q *Queue) gcLocked() {
	cutoff := q.now().Add(-q.opts.retention())
	finished := make([]*job, 0, 16)
	for _, j := range q.jobs {
		if !j.state.Terminal() {
			continue
		}
		if j.finished.Before(cutoff) {
			delete(q.jobs, j.id)
			continue
		}
		finished = append(finished, j)
	}
	if n := len(finished) - q.opts.maxFinished(); n > 0 {
		// Evict the oldest finished jobs (smallest IDs).
		sort.Slice(finished, func(i, k int) bool { return finished[i].id < finished[k].id })
		for _, j := range finished[:n] {
			delete(q.jobs, j.id)
		}
	}
}

// Shutdown stops accepting jobs, cancels everything queued or running,
// and waits (bounded by ctx) for the workers to drain.
func (q *Queue) Shutdown(ctx context.Context) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil
	}
	q.closed = true
	// Shutdown cancellations are deliberately NOT reported through
	// OnTransition: a job interrupted by a redeploy is not terminal in
	// the journal, so restart recovery re-enqueues it.
	for _, j := range q.jobs {
		if j.state == StateQueued {
			q.queued--
			j.state = StateCancelled
			j.err = context.Canceled
			j.finished = q.now()
			close(j.done)
		}
	}
	q.pending = nil
	q.cond.Broadcast()
	q.mu.Unlock()
	q.baseStop() // cancels running job contexts

	drained := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
