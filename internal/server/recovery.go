package server

import (
	"context"
	"encoding/json"
	"fmt"

	"repro"
	"repro/client"
	"repro/internal/jobs"
	"repro/internal/journal"
)

// recoverJobs replays the journal at startup and settles every job it
// mentions:
//
//   - terminal jobs become historic statuses, so clients that were
//     waiting on them across the restart get the real outcome;
//   - jobs the crash caught queued or running are re-enqueued under
//     their original IDs, optimizers resuming from their latest
//     checkpoint — unless their start-record count says the attempt
//     budget (Config.MaxAttempts) is spent, in which case they are
//     failed terminally (and that failure journaled, so the next
//     restart does not retry them again);
//   - jobs whose admission record is missing, no longer validates or
//     is unrebuildable are failed rather than silently dropped.
//
// Idempotency keys recorded at admission are re-registered either way,
// so a client retrying a pre-crash submit still lands on the original
// job.
func (s *Server) recoverJobs(recs []journal.Record) {
	for _, jr := range journal.Replay(recs) {
		if key := idemKeyOf(jr); key != "" {
			s.metaMu.Lock()
			s.idem[key] = jr.ID
			s.metaMu.Unlock()
		}
		if jr.Terminal != nil {
			s.putHistoric(historicStatus(jr))
			continue
		}
		s.recoverOne(jr)
	}
}

// recoverOne settles a single non-terminal journaled job: re-enqueue or
// terminal failure.
func (s *Server) recoverOne(jr *journal.JobReplay) {
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		s.journalAppend(journal.Record{Type: journal.TypeFailed, Job: jr.ID, Error: msg})
		st := historicStatus(jr)
		st.State = string(jobs.StateFailed)
		st.Error = msg
		s.putHistoric(st)
		s.recoveryDropped.Add(1)
	}
	if jr.Submit == nil {
		fail("recovery: journal holds no admission record for this job")
		return
	}
	var req client.JobRequest
	if err := json.Unmarshal(jr.Submit.Request, &req); err != nil {
		fail("recovery: decode journaled request: %v", err)
		return
	}
	// A request journaled under an older server may no longer be one
	// this server accepts (a retired op, say): it fails with the
	// message a live submit of it would get.
	if err := validate(&req); err != nil {
		fail("recovery: invalid request: %v", err)
		return
	}
	if d := validateOptimizer(&req); d != nil {
		fail("recovery: invalid request: %s", d.Msg)
		return
	}
	if jr.Attempts >= s.cfg.maxAttempts() {
		fail("crash-interrupted %d time(s); attempt budget %d exhausted",
			jr.Attempts, s.cfg.maxAttempts())
		return
	}

	// Replay resolves through the same governed path as a live submit,
	// so journaled verilog/liberty submissions reconstruct identically.
	d, hash, err := s.resolveDesign(context.Background(), &req)
	if err != nil {
		fail("recovery: resolve design: %v", err)
		return
	}

	var resume *repro.OptCheckpoint
	if jr.Checkpoint != nil {
		var cp repro.OptCheckpoint
		if jerr := json.Unmarshal(jr.Checkpoint.Checkpoint, &cp); jerr == nil {
			resume = &cp
		}
	}

	meta := jobMeta{
		op: req.Op, hash: hash,
		idemKey: jr.Submit.IdemKey,
		attempt: jr.Attempts, // next start becomes attempt Attempts+1
	}
	if err := s.enqueue(jr.ID, req, meta, s.jobFn(jr.ID, req, d, hash, optsKey(req), resume)); err != nil {
		fail("recovery: re-enqueue: %v", err)
		return
	}
	s.met.jobSubmitted(req.Op)
	s.jobsRecovered.Add(1)
}

func (s *Server) putHistoric(st client.JobStatus) {
	s.metaMu.Lock()
	s.historic[st.ID] = st
	s.metaMu.Unlock()
}

func idemKeyOf(jr *journal.JobReplay) string {
	if jr.Submit == nil {
		return ""
	}
	return jr.Submit.IdemKey
}

// historicStatus folds a job's journal history into the wire status a
// poller would have seen had the process not restarted.
func historicStatus(jr *journal.JobReplay) client.JobStatus {
	st := client.JobStatus{ID: jr.ID, Attempt: jr.Attempts}
	if sub := jr.Submit; sub != nil {
		st.Op = sub.Op
		st.DesignHash = sub.Hash
		st.Created = sub.Time
	}
	if t := jr.Terminal; t != nil {
		st.Finished = t.Time
		st.Error = t.Error
		switch t.Type {
		case journal.TypeDone:
			st.State = string(jobs.StateDone)
			st.Result = t.Result
			st.CacheHit = t.CacheHit
		case journal.TypeFailed:
			st.State = string(jobs.StateFailed)
		case journal.TypeCancelled:
			st.State = string(jobs.StateCancelled)
		}
	}
	return st
}
