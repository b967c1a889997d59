package server

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/journal"
)

// TestOptsKeyNormalization pins the result-memo key contract: design
// identity is carried by the design hash (not the key), the worker
// count is normalized out (every engine and optimizer is bit-identical
// at any worker count, so one result answers any of them), and
// genuinely result-changing options still split the key.
func TestOptsKeyNormalization(t *testing.T) {
	base := client.JobRequest{Op: client.OpOptimize, Generate: "c432", Lambda: 3}

	for _, op := range []string{client.OpOptimize, client.OpAnalyze, client.OpMonteCarlo} {
		serial := base
		serial.Op, serial.Workers = op, 1
		wide := serial
		wide.Workers = 4
		if optsKey(serial) != optsKey(wide) {
			t.Errorf("%s: workers must be normalized out of the result key:\n  w1: %s\n  w4: %s",
				op, optsKey(serial), optsKey(wide))
		}
	}

	renamed := base
	renamed.Generate = ""
	renamed.Bench = "INPUT(a)\nOUTPUT(a)\n"
	renamed.Name = "other"
	if optsKey(base) != optsKey(renamed) {
		t.Errorf("design identity fields must not influence the result key:\n  a: %s\n  b: %s",
			optsKey(base), optsKey(renamed))
	}

	// Format and Liberty are design identity too (the hash covers the
	// parsed content and the library fingerprint), never option state.
	formatted := renamed
	formatted.Format = client.FormatVerilog
	formatted.Liberty = "library (x) { }"
	if optsKey(renamed) != optsKey(formatted) {
		t.Errorf("format/liberty must be cleared from the result key:\n  a: %s\n  b: %s",
			optsKey(renamed), optsKey(formatted))
	}

	otherLambda := base
	otherLambda.Lambda = 9
	if optsKey(base) == optsKey(otherLambda) {
		t.Errorf("lambda changes results and must split the key: %s", optsKey(base))
	}

	// The default backend and its explicit name share one memo entry; a
	// different backend must split the key.
	explicit := base
	explicit.Optimizer = "statgreedy"
	if optsKey(base) != optsKey(explicit) {
		t.Errorf("default optimizer must normalize to its explicit name:\n  implicit: %s\n  explicit: %s",
			optsKey(base), optsKey(explicit))
	}
	sens := base
	sens.Optimizer = "sensitivity"
	if optsKey(base) == optsKey(sens) {
		t.Errorf("optimizer backend changes results and must split the key: %s", optsKey(base))
	}

	// On non-optimize ops the field is inert and cleared from the key.
	analyze := client.JobRequest{Op: client.OpAnalyze, Generate: "c432"}
	stray := analyze
	stray.Optimizer = "statgreedy"
	if optsKey(analyze) != optsKey(stray) {
		t.Errorf("optimizer must be cleared from non-optimize keys:\n  a: %s\n  b: %s",
			optsKey(analyze), optsKey(stray))
	}
}

// TestLegacyFullRecomputeAccepted pins the retirement of the
// full_recompute request field: a body that still carries it is
// accepted and answered exactly like one without it (the field is
// unknown to the decoder and ignored), both on submit and when a
// journal written before the retirement is replayed.
func TestLegacyFullRecomputeAccepted(t *testing.T) {
	const legacy = `{"op":"optimize","generate":"alu1","lambda":3,"max_iters":3,"workers":1,"full_recompute":true}`
	plain := client.JobRequest{Op: client.OpOptimize, Generate: "alu1", Lambda: 3, MaxIters: 3, Workers: 1}
	ctx := ctxT(t)

	// answer decodes a finished optimize job without its wall-time fields.
	answer := func(st *client.JobStatus) *client.OptimizeResult {
		t.Helper()
		r, err := st.Optimize()
		if err != nil {
			t.Fatalf("job %s: %v", st.ID, err)
		}
		r.RuntimeSec, r.AnalysisTimeSec = 0, 0
		return r
	}

	// Submit: the raw legacy body is admitted and runs the engines.
	srv, ts, c := newDurable(t, Config{JobWorkers: 1})
	defer interrupt(t, srv, ts)
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(legacy))
	if err != nil {
		t.Fatalf("POST legacy body: %v", err)
	}
	var sub client.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		t.Fatalf("legacy body: status %d (decode err %v), want 202", resp.StatusCode, err)
	}
	legacySt, err := c.Wait(ctx, sub.ID)
	if err != nil {
		t.Fatalf("wait legacy job: %v", err)
	}
	want := answer(legacySt)

	// The same request without the field shares the memo entry.
	plainSt, err := c.Run(ctx, plain)
	if err != nil {
		t.Fatalf("run plain request: %v", err)
	}
	if !plainSt.CacheHit {
		t.Error("request without full_recompute missed the legacy request's memo entry")
	}
	if got := answer(plainSt); !reflect.DeepEqual(got, want) {
		t.Fatalf("plain answer differs:\nlegacy %+v\nplain  %+v", want, got)
	}

	// Journal replay: a pre-retirement submit record is recovered and
	// re-run on a fresh server to the same answer.
	jp := filepath.Join(t.TempDir(), "jobs.journal")
	seedJournal(t, jp, journal.Record{
		Type: journal.TypeSubmit, Job: "j000001", Op: client.OpOptimize, Request: json.RawMessage(legacy),
	})
	srvR, tsR, cR := newDurable(t, Config{JobWorkers: 1, JournalPath: jp, NoSync: true})
	defer interrupt(t, srvR, tsR)
	replayed, err := cR.Wait(ctx, "j000001")
	if err != nil {
		t.Fatalf("wait replayed job: %v", err)
	}
	if replayed.CacheHit {
		t.Error("replayed job claims a cache hit on a fresh server")
	}
	if got := answer(replayed); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed answer differs:\nsubmit %+v\nreplay %+v", want, got)
	}
}
