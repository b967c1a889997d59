package server

import (
	"bytes"
	"context"
	"net/http"
	"reflect"
	"strconv"
	"testing"

	"repro"
	"repro/client"
	"repro/internal/designcache"
)

func benchTextOf(tb testing.TB, name string) string {
	tb.Helper()
	d, err := repro.Generate(name)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SaveBench(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.String()
}

// TestE2EResubmitRejectedTextFailsAlike submits rejected text twice:
// the design cache's source index never records text that failed, so
// the second submission is loaded again and answers exactly like the
// first — the same status and the same body with every diagnostic.
func TestE2EResubmitRejectedTextFailsAlike(t *testing.T) {
	t.Run("lint failure is 400 twice", func(t *testing.T) {
		_, base := startServiceCfg(t, Config{})
		req := client.JobRequest{Op: client.OpAnalyze, Name: "bad", Bench: `INPUT(a)
OUTPUT(y)
OUTPUT(z)
g1 = AND(a, g2)
g2 = NOT(g1)
y = BUF(g1)
z = AND(a, ghost)
`}
		code1, _, eb1 := postSubmit(t, base, req)
		code2, _, eb2 := postSubmit(t, base, req)
		if code1 != http.StatusBadRequest || code2 != http.StatusBadRequest {
			t.Fatalf("lint-failing netlist: HTTP %d then %d, want 400 twice", code1, code2)
		}
		checks := map[string]bool{}
		for _, d := range eb1.Diagnostics {
			checks[d.Check] = true
		}
		if !checks["cycle"] || !checks["undriven"] {
			t.Fatalf("first rejection lacks the cycle and undriven diagnostics: %+v", eb1.Diagnostics)
		}
		if !reflect.DeepEqual(eb1, eb2) {
			t.Fatalf("resubmission answered differently:\nfirst:  %+v\nsecond: %+v", eb1, eb2)
		}
	})

	t.Run("over budget is 413 twice", func(t *testing.T) {
		_, base := startServiceCfg(t, Config{Ingest: repro.IngestLimits{MaxGates: 16}})
		req := client.JobRequest{Op: client.OpAnalyze, Bench: benchTextOf(t, "c432")}
		code1, _, eb1 := postSubmit(t, base, req)
		code2, _, eb2 := postSubmit(t, base, req)
		if code1 != http.StatusRequestEntityTooLarge || code2 != http.StatusRequestEntityTooLarge {
			t.Fatalf("over-budget netlist: HTTP %d then %d, want 413 twice", code1, code2)
		}
		if !reflect.DeepEqual(eb1, eb2) {
			t.Fatalf("resubmission answered differently:\nfirst:  %+v\nsecond: %+v", eb1, eb2)
		}
	})
}

// TestE2EResubmitCountsDesignHit resubmits clean inline text under
// another name: the index hit counts as one design hit and no miss, the
// same count an intern of an already cached design gives.
func TestE2EResubmitCountsDesignHit(t *testing.T) {
	c, base := startServiceCfg(t, Config{})
	ctx := ctxT(t)
	req := client.JobRequest{Op: client.OpAnalyze, Name: "c432", Bench: benchTextOf(t, "c432"), Workers: 1}
	counters := func() (hits, misses int) {
		t.Helper()
		m, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		hits, err = strconv.Atoi(metricValue(t, m, "sstad_cache_design_hits_total"))
		if err != nil {
			t.Fatal(err)
		}
		misses, err = strconv.Atoi(metricValue(t, m, "sstad_cache_design_misses_total"))
		if err != nil {
			t.Fatal(err)
		}
		return hits, misses
	}
	if code, _, eb := postSubmit(t, base, req); code != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d (%s)", code, eb.Error)
	}
	h0, m0 := counters()
	if h0 != 0 || m0 != 1 {
		t.Fatalf("after the first submit: %d hits, %d misses; want 0 and 1", h0, m0)
	}
	req.Name = "renamed"
	if code, _, eb := postSubmit(t, base, req); code != http.StatusAccepted {
		t.Fatalf("second submit: HTTP %d (%s)", code, eb.Error)
	}
	if h1, m1 := counters(); h1 != h0+1 || m1 != m0 {
		t.Fatalf("resubmit moved design hits %d -> %d and misses %d -> %d; want +1 and +0", h0, h1, m0, m1)
	}
}

// BenchmarkResolveDesign is the submit path's design step on c2670
// text under the default budgets: miss loads, lints, maps, hashes and
// interns into an empty cache; hit is a resubmission of the same text
// served by the source index.
func BenchmarkResolveDesign(b *testing.B) {
	req := client.JobRequest{Op: client.OpAnalyze, Name: "c2670", Bench: benchTextOf(b, "c2670")}
	ctx := context.Background()
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := &Server{cache: designcache.New(0, 0)}
			if _, _, err := s.resolveDesign(ctx, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		s := &Server{cache: designcache.New(0, 0)}
		if _, _, err := s.resolveDesign(ctx, &req); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.resolveDesign(ctx, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
