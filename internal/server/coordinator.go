package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro"
	"repro/client"
	"repro/internal/cluster"
	"repro/internal/journal"
	"repro/internal/oprun"
)

// This file is the coordinator half of cluster mode: the worker-facing
// lease endpoints, the planner that splits a job into work units, and
// the merger that folds unit results back into the exact payload a
// single-node run would have produced.

// dispatch executes one job remotely: plan units, fan them into the
// lease pool, wait, merge. It runs inside the job queue's worker
// goroutine, so job timeouts, cancellation and the stall watchdog all
// apply unchanged — ctx cancellation withdraws the units, and a leased
// worker learns of it when its next heartbeat is rejected.
func (s *Server) dispatch(ctx context.Context, id string, req client.JobRequest, d *repro.Design, hash string, resume *repro.OptCheckpoint) (any, error) {
	specs, err := s.planUnits(id, req, hash, resume)
	if err != nil {
		return nil, err
	}
	hooks := cluster.Hooks{OnCheckpoint: func(shard, iter int, cost float64, cp json.RawMessage) {
		// Same semantics as the local checkpointSink: injection point for
		// chaos delays (synchronous with the worker's heartbeat POST, so a
		// delay here stretches its iterations), watchdog heartbeat, and
		// journal persistence of resumable state.
		_ = s.cfg.Inject.Fire("server.checkpoint")
		s.queue.SetProgress(id, iter, cost)
		if cp != nil {
			s.journalAppend(journal.Record{Type: journal.TypeCheckpoint, Job: id, Checkpoint: cp})
		}
	}}
	results, err := s.pool.Dispatch(ctx, specs, hooks)
	if err != nil {
		return nil, err
	}
	return s.mergeUnits(req, d, specs, results)
}

// planUnits splits a job into its work units. Monte-Carlo jobs shard by
// trial range (bit-exact by construction: trial streams are keyed by
// absolute index) and whatif jobs by candidate subset (independent
// scores); everything else — including the sequential optimizers — is a
// single unit carrying the whole request plus any resume checkpoint.
func (s *Server) planUnits(id string, req client.JobRequest, hash string, resume *repro.OptCheckpoint) ([]cluster.UnitSpec, error) {
	prio := cluster.PriorityOf(req.Priority)
	base := cluster.UnitSpec{
		Job: id, Shards: 1, Request: req, Hash: hash, Priority: prio,
	}
	switch {
	case req.Op == client.OpMonteCarlo && req.Samples > s.cfg.mcShardTrials():
		per := s.cfg.mcShardTrials()
		if n := (req.Samples + per - 1) / per; n > maxMCShards {
			per = (req.Samples + maxMCShards - 1) / maxMCShards
		}
		var specs []cluster.UnitSpec
		for lo := 0; lo < req.Samples; lo += per {
			hi := lo + per
			if hi > req.Samples {
				hi = req.Samples
			}
			u := base
			u.Shard, u.TrialLo, u.TrialHi = len(specs), lo, hi
			specs = append(specs, u)
		}
		for i := range specs {
			specs[i].Shards = len(specs)
		}
		return specs, nil
	case req.Op == client.OpWhatIf && len(req.Candidates) > s.cfg.whatIfShardSize():
		per := s.cfg.whatIfShardSize()
		var specs []cluster.UnitSpec
		for lo := 0; lo < len(req.Candidates); lo += per {
			hi := lo + per
			if hi > len(req.Candidates) {
				hi = len(req.Candidates)
			}
			u := base
			u.Shard = len(specs)
			u.Request.Candidates = req.Candidates[lo:hi]
			specs = append(specs, u)
		}
		for i := range specs {
			specs[i].Shards = len(specs)
		}
		return specs, nil
	default:
		if resume != nil {
			b, err := json.Marshal(resume)
			if err != nil {
				return nil, fmt.Errorf("encode resume checkpoint: %w", err)
			}
			base.Resume = b
		}
		return []cluster.UnitSpec{base}, nil
	}
}

// mergeUnits folds unit results into the job payload. Sharded
// Monte-Carlo concatenates trial ranges in shard order — recreating the
// single-node sample array exactly — and refolds moments/PDF locally;
// sharded whatif concatenates reports in candidate order; single units
// decode as the op's payload type.
func (s *Server) mergeUnits(req client.JobRequest, d *repro.Design, specs []cluster.UnitSpec, results []json.RawMessage) (any, error) {
	if len(specs) == 1 && specs[0].TrialHi == 0 {
		return decodePayload(req.Op, results[0])
	}
	switch req.Op {
	case client.OpMonteCarlo:
		samples := make([]float64, 0, req.Samples)
		for i, raw := range results {
			var shard cluster.MCShardResult
			if err := json.Unmarshal(raw, &shard); err != nil {
				return nil, fmt.Errorf("decode mc shard %d: %w", i, err)
			}
			if got, want := len(shard.Samples), specs[i].TrialHi-specs[i].TrialLo; got != want {
				return nil, fmt.Errorf("mc shard %d returned %d samples, want %d", i, got, want)
			}
			samples = append(samples, shard.Samples...)
		}
		return oprun.MergeMonteCarlo(req, d, samples)
	case client.OpWhatIf:
		merged := client.WhatIfResult{Reports: make([]client.WhatIfReport, 0, len(req.Candidates))}
		for i, raw := range results {
			var shard client.WhatIfResult
			if err := json.Unmarshal(raw, &shard); err != nil {
				return nil, fmt.Errorf("decode whatif shard %d: %w", i, err)
			}
			if got, want := len(shard.Reports), len(specs[i].Request.Candidates); got != want {
				return nil, fmt.Errorf("whatif shard %d returned %d reports, want %d", i, got, want)
			}
			merged.Reports = append(merged.Reports, shard.Reports...)
		}
		return merged, nil
	}
	return nil, fmt.Errorf("unreachable sharded op %q", req.Op)
}

// decodePayload maps a completed unit's raw result to the op's typed
// payload, so the memo, journal and pollers see the same shapes a local
// run produces. (Go's JSON float encoding is shortest-round-trip, so
// the decode is value-preserving bit for bit.)
func decodePayload(op string, raw json.RawMessage) (any, error) {
	switch op {
	case client.OpAnalyze, client.OpMonteCarlo:
		return decodeAs[client.AnalyzeResult](op, raw)
	case client.OpOptimize:
		return decodeAs[client.OptimizeResult](op, raw)
	case client.OpWNSSPath:
		return decodeAs[client.PathResult](op, raw)
	case client.OpWhatIf:
		return decodeAs[client.WhatIfResult](op, raw)
	}
	return nil, fmt.Errorf("unreachable op %q", op)
}

// decodeAs decodes raw as a T payload, returned by value like a local
// run's.
func decodeAs[T any](op string, raw json.RawMessage) (any, error) {
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, fmt.Errorf("decode %s unit result: %w", op, err)
	}
	return v, nil
}

// handleLeaseAcquire is POST /v1/leases: hand the calling worker the
// next pending unit. ?wait= long-polls (capped like job polling);
// nothing pending returns 204.
func (s *Server) handleLeaseAcquire(w http.ResponseWriter, r *http.Request) {
	var req cluster.AcquireRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode acquire: %v", err)
		return
	}
	if req.Worker == "" {
		writeError(w, http.StatusBadRequest, "acquire needs a worker id")
		return
	}
	var wait time.Duration
	if ws := r.URL.Query().Get("wait"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, "bad wait duration %q", ws)
			return
		}
		if wait = d; wait > maxWait {
			wait = maxWait
		}
	}
	lease, err := s.pool.Acquire(r.Context(), req.Worker, wait)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if lease == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, lease)
}

// handleLeaseHeartbeat is POST /v1/leases/{id}/heartbeat: renew the TTL
// and persist progress/checkpoint. 410 tells the worker its lease has
// been reassigned and it must abandon the unit.
func (s *Server) handleLeaseHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb cluster.HeartbeatRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, s.cfg.maxBody())).Decode(&hb); err != nil {
		writeError(w, http.StatusBadRequest, "decode heartbeat: %v", err)
		return
	}
	if err := s.pool.Heartbeat(r.PathValue("id"), hb); err != nil {
		writeLeaseErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleLeaseComplete is POST /v1/leases/{id}/complete: deliver the
// unit's result or error. Stale completions get 410 and are discarded.
func (s *Server) handleLeaseComplete(w http.ResponseWriter, r *http.Request) {
	var c cluster.CompleteRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, s.cfg.maxBody())).Decode(&c); err != nil {
		writeError(w, http.StatusBadRequest, "decode complete: %v", err)
		return
	}
	if err := s.pool.Complete(r.PathValue("id"), c); err != nil {
		writeLeaseErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func writeLeaseErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, cluster.ErrLeaseGone):
		writeError(w, http.StatusGone, "%v", err)
	case errors.Is(err, cluster.ErrPoolClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// handleDesignGet is GET /v1/designs/{hash}: serve a design's canonical
// .bench text by content address, replicating the coordinator's design
// cache to workers on demand. The worker re-hashes what it receives, so
// a stale or corrupt response cannot silently poison its mirror.
func (s *Server) handleDesignGet(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	d, ok := s.cache.Design(hash)
	if !ok {
		writeError(w, http.StatusNotFound, "no design with hash %q", hash)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if err := d.SaveBench(w); err != nil {
		// Too late for a status change; the worker's hash check catches
		// the truncation.
		return
	}
}
