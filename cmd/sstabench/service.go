package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/oprun"
	"repro/internal/server"
)

// The service workload drives sstad in-process (server.New behind
// httptest, sstad's defaults with the journal off) through the typed
// client. Two thirds of the measured seconds are an open loop at a
// fixed arrival rate: one connection submits on schedule and another
// waits for results in submission order, and each job is timed from
// when it was due to the server's Finished stamp, so a stall also
// charges the jobs queued behind it. The last third is a closed loop of
// one client per CPU calling submit-then-wait back to back, which gives
// throughput.

// oracleEvery: every oracleEvery-th request is re-run through
// oprun.Run locally and must match the server's answer bit for bit.
const oracleEvery = 20

// Trace lanes of the load generator's goroutines.
const (
	laneSubmit = 1 + iota
	laneWait
	laneClosed // + client index
)

type serviceRig struct {
	cfg     runConfig
	designs map[string]*svcDesign
	probeD  *svcDesign
	reqs    []client.JobRequest
	next    int // first request not yet sent
	srv     *server.Server
	ts      *httptest.Server
}

func newServiceRig(cfg runConfig) (*serviceRig, error) {
	rig := &serviceRig{cfg: cfg, designs: make(map[string]*svcDesign)}
	var list []*svcDesign
	for _, n := range cfg.sc.service {
		d, err := newSvcDesign(n)
		if err != nil {
			return nil, err
		}
		rig.designs[n] = d
		list = append(list, d)
	}
	rig.probeD = list[len(list)-1]
	// Enough requests for two passes of every phase: the open loops
	// need rate*seconds, and closed-loop throughput stays well below
	// 200 jobs/s on this mix.
	n := int(cfg.seconds*(cfg.sc.rate+200)) + 100
	rig.reqs = serviceRequests(cfg.seed, list, n, cfg.sc.mcSamples)
	srv, err := server.New(server.Config{JobWorkers: runtime.NumCPU()})
	if err != nil {
		return nil, err
	}
	rig.srv = srv
	rig.ts = httptest.NewServer(srv.Handler())
	return rig, nil
}

func (rig *serviceRig) close() {
	rig.ts.Close()
	rig.srv.Shutdown(context.Background())
}

// take hands out the next n requests (fewer if the list runs out).
func (rig *serviceRig) take(n int) (first int, reqs []client.JobRequest) {
	first = rig.next
	end := min(rig.next+n, len(rig.reqs))
	rig.next = end
	return first, rig.reqs[first:end]
}

func (rig *serviceRig) client() *client.Client {
	return client.New(rig.ts.URL, client.WithRetry(client.NoRetry))
}

// warmup runs one plain analyze per circuit. The traffic's analyze
// requests all carry yield queries, so none of them hits these results.
func (rig *serviceRig) warmup(ctx context.Context) error {
	cl := rig.client()
	for _, n := range rig.cfg.sc.service {
		d := rig.designs[n]
		st, err := cl.Run(ctx, client.JobRequest{Op: client.OpAnalyze, Bench: d.bench, Name: d.name})
		if err != nil {
			return err
		}
		if st.State != "done" {
			return fmt.Errorf("warm-up analyze of %s: %s %s", n, st.State, st.Error)
		}
	}
	return nil
}

// jobOut is one finished request.
type jobOut struct {
	idx int // index into rig.reqs
	st  *client.JobStatus
}

// passOut is what one pass of the traffic measured.
type passOut struct {
	latencyMS []float64 // open loop: due time to Finished
	lagMS     []float64 // open loop: how late each submit left
	opsPerS   float64   // closed loop
	attempted int
	failed    int
	rejected  int
	done      []jobOut
	errs      []error
}

func (p *passOut) fail(err error) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err)
	}
}

// pass runs the open loop for two thirds of seconds and the closed loop
// for the rest. tr, when not nil, gets submit and wait spans and the
// per-job server timings.
func (rig *serviceRig) pass(ctx context.Context, tr *tracer, seconds float64) *passOut {
	out := &passOut{}
	var mu sync.Mutex // guards out from the loop goroutines
	record := func(idx int, st *client.JobStatus, err error) bool {
		mu.Lock()
		defer mu.Unlock()
		out.attempted++
		switch {
		case err != nil:
			var api *client.APIError
			if errors.As(err, &api) && api.Status == 429 {
				out.rejected++
			}
			out.fail(err)
			return false
		case st.State != "done":
			out.fail(fmt.Errorf("job %s (%s): %s %s", st.ID, st.Op, st.State, st.Error))
			return false
		}
		out.done = append(out.done, jobOut{idx: idx, st: st})
		return true
	}

	// Open loop.
	open := seconds * 2 / 3
	openFirst, openReqs := rig.take(int(open * rig.cfg.sc.rate))
	type sent struct {
		idx int
		id  string
		due time.Time
	}
	queue := make(chan sent, len(openReqs)) // sized to the number of sends
	var wg sync.WaitGroup
	wg.Add(2)
	openStart := time.Now()
	go func() {
		defer wg.Done()
		defer close(queue)
		sub := rig.client()
		for i, req := range openReqs {
			due := openStart.Add(time.Duration(float64(i) / rig.cfg.sc.rate * float64(time.Second)))
			time.Sleep(time.Until(due))
			lag := msSince(due)
			var st *client.JobStatus
			var err error
			d := tr.lane(laneSubmit, "server.submit", func() { st, err = sub.Submit(ctx, req) })
			mu.Lock()
			out.lagMS = append(out.lagMS, lag)
			mu.Unlock()
			tr.add("server.submit_ms", msOf(d))
			if err != nil {
				record(openFirst+i, nil, err)
				continue
			}
			queue <- sent{idx: openFirst + i, id: st.ID, due: due}
		}
	}()
	go func() {
		defer wg.Done()
		wt := rig.client()
		for s := range queue {
			var st *client.JobStatus
			var err error
			tr.lane(laneWait, "client.wait", func() { st, err = wt.Wait(ctx, s.id) })
			if record(s.idx, st, err) {
				mu.Lock()
				out.latencyMS = append(out.latencyMS, msOf(st.Finished.Sub(s.due)))
				mu.Unlock()
			}
		}
	}()
	wg.Wait()

	// Closed loop.
	closedFirst, closedReqs := rig.take(len(rig.reqs))
	var nextReq atomic.Int64
	var completed atomic.Int64
	closedStart := time.Now()
	deadline := closedStart.Add(time.Duration((seconds - open) * float64(time.Second)))
	workers := runtime.NumCPU()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		tid := laneClosed + w
		go func() {
			defer wg.Done()
			cl := rig.client()
			for time.Now().Before(deadline) {
				i := int(nextReq.Add(1) - 1)
				if i >= len(closedReqs) {
					return
				}
				var st *client.JobStatus
				var err error
				tr.lane(tid, "server.submit", func() { st, err = cl.Submit(ctx, closedReqs[i]) })
				if err == nil && !st.Terminal() {
					tr.lane(tid, "client.wait", func() { st, err = cl.Wait(ctx, st.ID) })
				}
				if record(closedFirst+i, st, err) {
					completed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	out.opsPerS = float64(completed.Load()) / time.Since(closedStart).Seconds()
	// Requests the closed loop never reached go back to the pool.
	rig.next = closedFirst + min(int(nextReq.Load()), len(closedReqs))
	return out
}

// oracle re-runs every oracleEvery-th finished request through
// oprun.Run on a locally parsed copy of its design and compares the
// payloads; optimizer wall-time fields are the only ones excluded.
func (rig *serviceRig) oracle(ctx context.Context, done []jobOut) (checked int, err error) {
	for _, j := range done {
		if j.idx%oracleEvery != 0 {
			continue
		}
		req := rig.reqs[j.idx]
		local, err := oprun.Run(ctx, req, rig.designs[req.Name].d, nil, nil)
		if err != nil {
			return checked, fmt.Errorf("request %d (%s): local run: %w", j.idx, req.Op, err)
		}
		want, err := json.Marshal(local)
		if err != nil {
			return checked, err
		}
		var a, b map[string]any
		if err := json.Unmarshal(want, &a); err != nil {
			return checked, err
		}
		if err := json.Unmarshal(j.st.Result, &b); err != nil {
			return checked, err
		}
		for _, k := range []string{"runtime_sec", "analysis_time_sec"} {
			delete(a, k)
			delete(b, k)
		}
		if !reflect.DeepEqual(a, b) {
			return checked, fmt.Errorf("request %d (%s on %s): server answer differs from oprun.Run", j.idx, req.Op, req.Name)
		}
		checked++
	}
	return checked, nil
}

// runService measures the service workload; see the comment at the top.
func runService(cfg runConfig) (*result, error) {
	res := &result{}
	var rig *serviceRig
	for i := 0; i < setupRuns; i++ {
		if rig != nil {
			rig.close()
		}
		start := time.Now()
		var err error
		if rig, err = newServiceRig(cfg); err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(start).Seconds())
	}
	defer rig.close()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	if err := rig.warmup(ctx); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	heap := startHeapSampler()
	p := rig.pass(ctx, nil, seconds)
	res.peakMB = heap.stop()
	passes := []*passOut{p}
	res.latencyMS, res.opsPerS = p.latencyMS, p.opsPerS
	if cfg.trace {
		res.tr = newTracer(cfg.workload)
		tp := rig.pass(ctx, res.tr, seconds)
		passes = append(passes, tp)
		var jobs jobCounter
		for _, j := range tp.done {
			jobs.add(res.tr, j.st)
		}
		jobs.record(res.tr)
		res.tr.add("trace.overhead_pct", 100*(median(tp.latencyMS)-median(p.latencyMS))/median(p.latencyMS))
		if err := sweep(res.tr, &probeTarget{d: rig.probeD.d, coreIters: 20, sensIters: 5, noServer: true}, cfg); err != nil {
			return nil, fmt.Errorf("layer sweep: %w", err)
		}
	}

	var done []jobOut
	for _, q := range passes {
		res.attempted += q.attempted
		res.failed += q.failed
		for _, err := range q.errs {
			res.addCheck(checkErr("job", err))
		}
		done = append(done, q.done...)
	}
	checked, err := rig.oracle(ctx, done)
	c := checkErr("oracle_every_20th_job", err)
	if err == nil {
		c.Detail = fmt.Sprintf("%d jobs matched oprun.Run", checked)
	}
	res.addCheck(c)

	lag := sortedCopy(p.lagMS)
	res.notes = append(res.notes,
		note{Name: "open_loop_rate", Value: cfg.sc.rate, Unit: "jobs/s"},
		note{Name: "open_loop_jobs", Value: float64(len(p.latencyMS)), Unit: "count"},
		note{Name: "rejected", Value: float64(p.rejected), Unit: "count"},
		note{Name: "loadgen_lag_p99", Value: percentile(lag, 99), Unit: "ms"})
	if pt, ok := tailPercentile(len(p.latencyMS)); ok {
		res.notes = append(res.notes, note{Name: fmt.Sprintf("latency_p%g", pt),
			Value: percentile(sortedCopy(p.latencyMS), pt), Unit: "ms"})
	}
	return res, nil
}
