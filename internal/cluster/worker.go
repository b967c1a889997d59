package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/designcache"
	"repro/internal/oprun"
)

// WorkerOptions configure a worker replica.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (e.g. http://host:8080).
	Coordinator string
	// ID names this replica in leases and metrics (required).
	ID string
	// Workers is the per-unit engine parallelism override (0 = request's).
	Workers int
	// Poll bounds the long-poll wait per acquire (default 2s).
	Poll time.Duration
	// CacheDesigns bounds the local design-cache mirror (default 64).
	CacheDesigns int
	// HTTPClient overrides the transport (default http.DefaultClient
	// with no overall timeout — acquires long-poll).
	HTTPClient *http.Client
}

// WorkerStats counts a worker's lifetime activity (atomic snapshot).
type WorkerStats struct {
	UnitsDone   uint64
	UnitsFailed uint64
	// StaleAborts counts units abandoned because the coordinator
	// declared the lease gone (TTL expiry beat our heartbeat).
	StaleAborts uint64
	// DesignFetches counts GET /v1/designs round-trips (misses of the
	// local mirror).
	DesignFetches uint64
}

// Worker is an sstad worker replica: it pulls leased units from the
// coordinator, resolves designs through a local content-addressed
// mirror, executes ops with the shared engines, heartbeats at TTL/3
// (streaming optimizer checkpoints back), and delivers results.
type Worker struct {
	opts  WorkerOptions
	hc    *http.Client
	cache *designcache.Cache

	unitsDone     atomic.Uint64
	unitsFailed   atomic.Uint64
	staleAborts   atomic.Uint64
	designFetches atomic.Uint64
}

// NewWorker creates a worker (call Run to start the lease loop).
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Coordinator == "" {
		return nil, errors.New("cluster: worker needs a coordinator URL")
	}
	if opts.ID == "" {
		return nil, errors.New("cluster: worker needs an ID")
	}
	if _, err := url.Parse(opts.Coordinator); err != nil {
		return nil, fmt.Errorf("cluster: coordinator URL: %w", err)
	}
	if opts.Poll <= 0 {
		opts.Poll = 2 * time.Second
	}
	if opts.CacheDesigns <= 0 {
		opts.CacheDesigns = 64
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	return &Worker{
		opts:  opts,
		hc:    hc,
		cache: designcache.New(opts.CacheDesigns, 1),
	}, nil
}

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		UnitsDone:     w.unitsDone.Load(),
		UnitsFailed:   w.unitsFailed.Load(),
		StaleAborts:   w.staleAborts.Load(),
		DesignFetches: w.designFetches.Load(),
	}
}

// Run executes the lease loop until ctx is cancelled. Transient
// coordinator errors (restart, partition) back off and retry; Run only
// returns ctx.Err().
func (w *Worker) Run(ctx context.Context) error {
	backoff := 100 * time.Millisecond
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, err := w.acquire(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// Coordinator unreachable or erroring: back off, capped.
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return ctx.Err()
			}
			if backoff *= 2; backoff > 5*time.Second {
				backoff = 5 * time.Second
			}
			continue
		}
		backoff = 100 * time.Millisecond
		if lease == nil {
			continue // long-poll elapsed empty; re-acquire immediately
		}
		w.execute(ctx, lease)
	}
}

func (w *Worker) acquire(ctx context.Context) (*Lease, error) {
	body, _ := json.Marshal(AcquireRequest{Worker: w.opts.ID})
	u := fmt.Sprintf("%s/v1/leases?wait=%s", w.opts.Coordinator, w.opts.Poll)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil, nil
	case http.StatusOK:
		var lease Lease
		if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&lease); err != nil {
			return nil, err
		}
		return &lease, nil
	default:
		return nil, fmt.Errorf("cluster: acquire: coordinator returned %s", resp.Status)
	}
}

// execute runs one leased unit end to end. Errors are delivered to the
// coordinator as unit failures; a lease declared gone mid-run cancels
// the engines and abandons the unit silently.
func (w *Worker) execute(ctx context.Context, lease *Lease) {
	unitCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// gone flips when the coordinator rejects our lease: stop computing,
	// don't bother completing.
	var gone atomic.Bool
	onGone := func() {
		gone.Store(true)
		cancel()
	}

	// Resolve the design before starting heartbeats so fetch failures
	// surface as unit errors without burning any engine time.
	if _, err := w.design(unitCtx, lease); err != nil {
		w.complete(ctx, lease.ID, CompleteRequest{Error: err.Error()})
		w.unitsFailed.Add(1)
		return
	}

	hb := w.startHeartbeats(lease, onGone)
	payload, err := w.run(unitCtx, lease, hb)
	hb.stop()

	if gone.Load() {
		w.staleAborts.Add(1)
		return
	}
	if err != nil {
		w.complete(ctx, lease.ID, CompleteRequest{Error: err.Error()})
		w.unitsFailed.Add(1)
		return
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		w.complete(ctx, lease.ID, CompleteRequest{Error: fmt.Sprintf("marshal result: %v", err)})
		w.unitsFailed.Add(1)
		return
	}
	if err := w.complete(ctx, lease.ID, CompleteRequest{Result: raw}); err != nil {
		if errors.Is(err, ErrLeaseGone) {
			w.staleAborts.Add(1)
		}
		return
	}
	w.unitsDone.Add(1)
}

// run dispatches the unit to the engines: a Monte-Carlo trial-range
// shard returns raw samples; everything else goes through oprun with a
// checkpoint callback that streams optimizer state to the coordinator.
func (w *Worker) run(ctx context.Context, lease *Lease, hb *heartbeater) (any, error) {
	req := lease.Request
	if w.opts.Workers > 0 {
		req.Workers = w.opts.Workers
	}
	d, err := w.design(ctx, lease)
	if err != nil {
		return nil, err
	}
	if lease.TrialHi > lease.TrialLo {
		samples, err := oprun.MonteCarloShard(ctx, req, d, lease.TrialLo, lease.TrialHi)
		if err != nil {
			return nil, err
		}
		return MCShardResult{Samples: samples}, nil
	}
	var resume *repro.OptCheckpoint
	if len(lease.Resume) > 0 {
		resume = new(repro.OptCheckpoint)
		if err := json.Unmarshal(lease.Resume, resume); err != nil {
			return nil, fmt.Errorf("decode resume checkpoint: %w", err)
		}
	}
	return oprun.Run(ctx, req, d, resume, func(cp repro.OptCheckpoint) {
		hb.checkpoint(cp)
	})
}

// design resolves the lease's design through the local mirror:
// built-ins generate once, and later leases of the same name hit the
// mirror's source index (designcache.Generate) without regenerating or
// re-hashing; hashed designs fetch from the coordinator on miss, with
// the text re-hashed to prove it matches the content address, and later
// units for that design hit the mirror.
func (w *Worker) design(ctx context.Context, lease *Lease) (*repro.Design, error) {
	if lease.Request.Generate != "" {
		d, _, err := w.cache.Generate(lease.Request.Generate)
		return d, err
	}
	if lease.Hash == "" {
		return nil, errors.New("cluster: lease has neither generate nor design hash")
	}
	if d, ok := w.cache.Design(lease.Hash); ok {
		return d, nil
	}
	text, err := w.fetchDesign(ctx, lease.Hash)
	if err != nil {
		return nil, err
	}
	name := lease.Request.Name
	if name == "" {
		name = "design"
	}
	d, hash, err := w.cache.Parse(text, name)
	if err != nil {
		return nil, fmt.Errorf("parse replicated design: %w", err)
	}
	if hash != lease.Hash {
		return nil, fmt.Errorf("replicated design hash mismatch: asked %s, got %s", lease.Hash, hash)
	}
	return d, nil
}

func (w *Worker) fetchDesign(ctx context.Context, hash string) (string, error) {
	w.designFetches.Add(1)
	u := fmt.Sprintf("%s/v1/designs/%s", w.opts.Coordinator, hash)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return "", err
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("cluster: design %s: coordinator returned %s", hash, resp.Status)
	}
	text, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return "", err
	}
	return string(text), nil
}

// heartbeater renews one lease on a TTL/3 ticker and forwards optimizer
// checkpoints inline (a checkpoint beat also renews the TTL, so a
// steadily-checkpointing optimizer never needs the ticker).
type heartbeater struct {
	w      *Worker
	lease  *Lease
	onGone func()

	mu       sync.Mutex
	lastIter int
	lastCost float64

	stopCh chan struct{}
	done   chan struct{}
}

func (w *Worker) startHeartbeats(lease *Lease, onGone func()) *heartbeater {
	hb := &heartbeater{
		w: w, lease: lease, onGone: onGone,
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
	interval := time.Duration(lease.TTLSec * float64(time.Second) / 3)
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		defer close(hb.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hb.stopCh:
				return
			case <-t.C:
				hb.mu.Lock()
				iter, cost := hb.lastIter, hb.lastCost
				hb.mu.Unlock()
				hb.send(HeartbeatRequest{Iter: iter, Cost: cost})
			}
		}
	}()
	return hb
}

func (hb *heartbeater) stop() {
	close(hb.stopCh)
	<-hb.done
}

// checkpoint streams one optimizer checkpoint to the coordinator
// synchronously — by the time the next iteration starts, the
// coordinator can already resume from this one.
func (hb *heartbeater) checkpoint(cp repro.OptCheckpoint) {
	raw, err := json.Marshal(cp)
	if err != nil {
		return
	}
	hb.mu.Lock()
	hb.lastIter, hb.lastCost = cp.Iter, cp.Cost
	hb.mu.Unlock()
	hb.send(HeartbeatRequest{Iter: cp.Iter, Cost: cp.Cost, Checkpoint: raw})
}

// send posts one heartbeat; a 410 means the lease is gone and flips the
// unit abort. Transport errors are ignored — the ticker retries, and if
// the coordinator stays unreachable the lease expires server-side,
// which is exactly the designed outcome.
func (hb *heartbeater) send(req HeartbeatRequest) {
	body, _ := json.Marshal(req)
	u := fmt.Sprintf("%s/v1/leases/%s/heartbeat", hb.w.opts.Coordinator, hb.lease.ID)
	httpReq, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := hb.w.hc.Do(httpReq)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode == http.StatusGone {
		hb.onGone()
	}
}

// complete delivers the unit outcome; ErrLeaseGone maps from 410.
func (w *Worker) complete(ctx context.Context, leaseID string, c CompleteRequest) error {
	body, err := json.Marshal(c)
	if err != nil {
		return err
	}
	u := fmt.Sprintf("%s/v1/leases/%s/complete", w.opts.Coordinator, leaseID)
	// Deliberately not unitCtx: a cancelled unit may still owe the
	// coordinator its error. Parent ctx applies via the transport.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	switch resp.StatusCode {
	case http.StatusOK, http.StatusNoContent:
		return nil
	case http.StatusGone:
		return ErrLeaseGone
	default:
		return fmt.Errorf("cluster: complete: coordinator returned %s", resp.Status)
	}
}
