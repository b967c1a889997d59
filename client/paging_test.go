package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// pagedJobs serves a fixed job listing newest-first with cursor
// pagination, mirroring the server's GET /v1/jobs contract, and records
// submit headers for the tenant test.
type pagedJobs struct {
	ids     []string // newest first
	tenants []string
}

func (p *pagedJobs) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		limit := 100
		if ls := r.URL.Query().Get("limit"); ls != "" {
			limit, _ = strconv.Atoi(ls)
		}
		cursor := r.URL.Query().Get("cursor")
		var out JobList
		for _, id := range p.ids {
			if cursor != "" && id >= cursor {
				continue
			}
			if len(out.Jobs) == limit {
				out.NextCursor = out.Jobs[limit-1].ID
				break
			}
			out.Jobs = append(out.Jobs, JobStatus{ID: id, State: "done"})
		}
		json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		p.tenants = append(p.tenants, r.Header.Get("X-Tenant"))
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(JobStatus{ID: "j000099", State: "done",
			Op: OpAnalyze, Result: json.RawMessage(`{"mean":1}`)})
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(JobStatus{ID: r.PathValue("id"), State: "cancelled"})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(Healthz{Status: "ok", Role: "coordinator",
			Node: "n1", Revision: "abc", GoVersion: "go1.24"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "sstad_build_info 1")
	})
	return mux
}

func TestJobsPagination(t *testing.T) {
	p := &pagedJobs{}
	for i := 7; i >= 1; i-- {
		p.ids = append(p.ids, fmt.Sprintf("j%06d", i))
	}
	ts := httptest.NewServer(p.handler())
	defer ts.Close()
	c := testClient(ts)
	ctx := context.Background()

	page, err := c.JobsPage(ctx, 3, "")
	if err != nil {
		t.Fatalf("JobsPage: %v", err)
	}
	if len(page.Jobs) != 3 || page.Jobs[0].ID != "j000007" || page.NextCursor != "j000005" {
		t.Fatalf("first page = %+v", page)
	}
	page, err = c.JobsPage(ctx, 3, page.NextCursor)
	if err != nil {
		t.Fatalf("JobsPage cursor: %v", err)
	}
	if len(page.Jobs) != 3 || page.Jobs[0].ID != "j000004" {
		t.Fatalf("second page = %+v", page)
	}

	all, err := c.Jobs(ctx)
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	if len(all) != 7 || all[0].ID != "j000007" || all[6].ID != "j000001" {
		t.Fatalf("Jobs walked %d entries (%v), want all 7 newest-first", len(all), all)
	}
}

func TestTenantHeaderAndConveniences(t *testing.T) {
	p := &pagedJobs{}
	ts := httptest.NewServer(p.handler())
	defer ts.Close()
	c := testClient(ts, WithTenant("acme"))
	ctx := context.Background()

	if c.BaseURL() != ts.URL {
		t.Fatalf("BaseURL = %q, want %q", c.BaseURL(), ts.URL)
	}
	st, err := c.Run(ctx, JobRequest{Op: OpAnalyze, Generate: "alu2"})
	if err != nil || st.State != "done" {
		t.Fatalf("Run: %v (status %+v)", err, st)
	}
	if len(p.tenants) != 1 || p.tenants[0] != "acme" {
		t.Fatalf("submit tenant headers = %v, want [acme]", p.tenants)
	}
	if err := c.Cancel(ctx, "j000099"); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	h, err := c.Healthz(ctx)
	if err != nil {
		t.Fatalf("Healthz: %v", err)
	}
	if h.Role != "coordinator" || h.Revision != "abc" || h.GoVersion != "go1.24" {
		t.Fatalf("Healthz = %+v", h)
	}
	m, err := c.Metrics(ctx)
	if err != nil || m != "sstad_build_info 1\n" {
		t.Fatalf("Metrics = %q, %v", m, err)
	}
}

// TestPayloadDecoders covers every typed payload accessor plus its two
// failure modes: decoding a non-terminal job and decoding the wrong op.
func TestPayloadDecoders(t *testing.T) {
	done := func(op, result string) *JobStatus {
		return &JobStatus{ID: "j1", State: "done", Op: op, Result: json.RawMessage(result)}
	}
	if r, err := done(OpAnalyze, `{"mean":2}`).Analyze(); err != nil || r.Mean != 2 {
		t.Fatalf("Analyze: %+v, %v", r, err)
	}
	if r, err := done(OpMonteCarlo, `{"sigma":3}`).MonteCarlo(); err != nil || r.Sigma != 3 {
		t.Fatalf("MonteCarlo: %+v, %v", r, err)
	}
	if r, err := done(OpOptimize, `{"iterations":4,"sizes":[1,2]}`).Optimize(); err != nil || r.Iterations != 4 || len(r.Sizes) != 2 {
		t.Fatalf("Optimize: %+v, %v", r, err)
	}
	if r, err := done(OpWNSSPath, `{"gates":["g1"]}`).WNSSPath(); err != nil || len(r.Gates) != 1 {
		t.Fatalf("WNSSPath: %+v, %v", r, err)
	}
	if r, err := done(OpWhatIf, `{"reports":[{"gates":7}]}`).WhatIf(); err != nil || r.Reports[0].Gates != 7 {
		t.Fatalf("WhatIf: %+v, %v", r, err)
	}

	if _, err := done(OpAnalyze, `{}`).Optimize(); err == nil {
		t.Error("wrong-op decode accepted")
	}
	running := &JobStatus{ID: "j1", State: "running", Op: OpAnalyze}
	if _, err := running.Analyze(); err == nil {
		t.Error("non-terminal decode accepted")
	}
}
