package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/client"
)

// startServiceCfg is startService with an explicit Config, returning the
// raw base URL for tests that pin the HTTP status contract without the
// client's retry layer in the way.
func startServiceCfg(t *testing.T, cfg Config) (*client.Client, string) {
	t.Helper()
	if cfg.JobWorkers == 0 {
		cfg.JobWorkers = 2
	}
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = 2 * time.Minute
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return client.New(ts.URL), ts.URL
}

// postJob POSTs a submit body and decodes the error envelope (zero
// ErrorBody for 2xx).
func postSubmit(t *testing.T, base string, req client.JobRequest) (int, http.Header, client.ErrorBody) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var eb client.ErrorBody
	if resp.StatusCode/100 != 2 {
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("decode error body (HTTP %d): %v", resp.StatusCode, err)
		}
	}
	return resp.StatusCode, resp.Header, eb
}

func verilogText(t *testing.T, name string) string {
	t.Helper()
	d, err := repro.Generate(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SaveVerilog(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestE2ESubmitStatusContract pins the front-door status codes: a body
// over the raw size limit answers 413, an inline netlist over an
// ingestion budget answers 413 with a budget diagnostic, malformed
// input answers 400 with positioned diagnostics, and quota rejections
// answer 429 with Retry-After.
func TestE2ESubmitStatusContract(t *testing.T) {
	t.Run("oversize body is 413", func(t *testing.T) {
		_, base := startServiceCfg(t, Config{MaxBodyBytes: 4096})
		code, _, eb := postSubmit(t, base, client.JobRequest{
			Op:    client.OpAnalyze,
			Bench: strings.Repeat("# padding\n", 1024),
		})
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversize body: HTTP %d (%s), want 413", code, eb.Error)
		}
	})

	t.Run("over-ingest-budget netlist is 413", func(t *testing.T) {
		_, base := startServiceCfg(t, Config{Ingest: repro.IngestLimits{MaxBytes: 512}})
		code, _, eb := postSubmit(t, base, client.JobRequest{
			Op:     client.OpAnalyze,
			Bench:  verilogText(t, "c432"),
			Format: client.FormatVerilog,
		})
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("over-budget netlist: HTTP %d (%s), want 413", code, eb.Error)
		}
		if len(eb.Diagnostics) == 0 || eb.Diagnostics[0].Check == "" {
			t.Fatalf("budget rejection carries no diagnostics: %+v", eb)
		}
	})

	t.Run(".bench over ingest budget is 413", func(t *testing.T) {
		_, base := startServiceCfg(t, Config{Ingest: repro.IngestLimits{MaxGates: 16}})
		d, err := repro.Generate("c432")
		if err != nil {
			t.Fatal(err)
		}
		var net bytes.Buffer
		if err := d.SaveBench(&net); err != nil {
			t.Fatal(err)
		}
		code, _, eb := postSubmit(t, base, client.JobRequest{Op: client.OpAnalyze, Bench: net.String()})
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("over-budget .bench: HTTP %d (%s), want 413", code, eb.Error)
		}
		if len(eb.Diagnostics) == 0 || eb.Diagnostics[0].Check != "budget" {
			t.Fatalf("budget rejection carries no budget diagnostic: %+v", eb)
		}
	})

	t.Run("malformed verilog is 400 with positions", func(t *testing.T) {
		_, base := startServiceCfg(t, Config{})
		code, _, eb := postSubmit(t, base, client.JobRequest{
			Op:     client.OpAnalyze,
			Bench:  "module m(y);\n  output y;\n  nand g1(y, a,;\nendmodule\n",
			Format: client.FormatVerilog,
		})
		if code != http.StatusBadRequest {
			t.Fatalf("malformed verilog: HTTP %d (%s), want 400", code, eb.Error)
		}
		if len(eb.Diagnostics) == 0 {
			t.Fatalf("malformed rejection carries no diagnostics: %+v", eb)
		}
		if d := eb.Diagnostics[0]; d.Line == 0 || d.Col == 0 {
			t.Fatalf("diagnostic missing line/col: %+v", d)
		}
	})

	t.Run("quota rejection is 429 with Retry-After", func(t *testing.T) {
		_, base := startServiceCfg(t, Config{TenantRate: 0.001, TenantBurst: 1})
		code, _, _ := postSubmit(t, base, client.JobRequest{Op: client.OpAnalyze, Generate: "alu1", Workers: 1})
		if code/100 != 2 {
			t.Fatalf("first submit: HTTP %d", code)
		}
		code, hdr, _ := postSubmit(t, base, client.JobRequest{Op: client.OpAnalyze, Generate: "alu1", Workers: 1})
		if code != http.StatusTooManyRequests {
			t.Fatalf("over-quota submit: HTTP %d, want 429", code)
		}
		if hdr.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}
	})
}

// TestE2EVerilogSubmission runs a verilog-format submission end to end
// and asserts it analyzes to the same answer as the .bench form of the
// same design loaded directly.
func TestE2EVerilogSubmission(t *testing.T) {
	c, _ := startServiceCfg(t, Config{})
	ctx := ctxT(t)
	vtext := verilogText(t, "alu2")
	st, err := c.Run(ctx, client.JobRequest{
		Op: client.OpAnalyze, Bench: vtext, Format: client.FormatVerilog,
		Name: "alu2v", Workers: 1,
	})
	if err != nil || st.State != "done" {
		t.Fatalf("verilog analyze: err %v, state %+v", err, st)
	}
	if st.DesignHash == "" {
		t.Fatal("no design hash on verilog submission")
	}
	d, err := repro.Load(strings.NewReader(vtext), repro.LoadSpec{Format: "verilog", Name: "alu2v"})
	if err != nil {
		t.Fatal(err)
	}
	direct := d.AnalyzeOpts(repro.RunOptions{Workers: 1})
	var got client.AnalyzeResult
	if err := json.Unmarshal(st.Result, &got); err != nil {
		t.Fatal(err)
	}
	if got.Mean != direct.Mean || got.Sigma != direct.Sigma {
		t.Fatalf("service (%g, %g) disagrees with direct load (%g, %g)",
			got.Mean, got.Sigma, direct.Mean, direct.Sigma)
	}
}

// TestE2ELibertyChangesDesignHash pins that an uploaded library is part
// of design identity: the same netlist with and without a (modified)
// library must land on different design hashes, so memoized results can
// never leak across libraries.
func TestE2ELibertyChangesDesignHash(t *testing.T) {
	c, _ := startServiceCfg(t, Config{})
	ctx := ctxT(t)
	d, err := repro.Generate("alu1")
	if err != nil {
		t.Fatal(err)
	}
	var net, lib bytes.Buffer
	if err := d.SaveBench(&net); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveLiberty(&lib); err != nil {
		t.Fatal(err)
	}
	// Double the primary-output load: a real timing change.
	libText := strings.Replace(lib.String(),
		"default_output_load : ", "default_output_load : 2", 1)
	if libText == lib.String() {
		t.Fatal("liberty text edit did not apply")
	}
	st1, err := c.Run(ctx, client.JobRequest{Op: client.OpAnalyze, Bench: net.String(), Workers: 1})
	if err != nil || st1.State != "done" {
		t.Fatalf("plain submit: %v %+v", err, st1)
	}
	st2, err := c.Run(ctx, client.JobRequest{
		Op: client.OpAnalyze, Bench: net.String(), Liberty: libText, Workers: 1,
	})
	if err != nil || st2.State != "done" {
		t.Fatalf("liberty submit: %v %+v", err, st2)
	}
	if st1.DesignHash == st2.DesignHash {
		t.Fatal("library upload did not change the design's content address")
	}
	var a1, a2 client.AnalyzeResult
	if err := json.Unmarshal(st1.Result, &a1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(st2.Result, &a2); err != nil {
		t.Fatal(err)
	}
	if a1.Mean == a2.Mean {
		t.Fatal("doubled output load did not change the analysis")
	}
}

// TestE2EPoisonedLibertyRejected submits c432 with Liberty libraries
// holding nan table values. Before the library validity checks an
// all-nan library loaded and analyzed c432 to mean 0, sigma 0. Now each
// is a typed rejection whose diagnostics point at the bad numbers, and
// the server goes on serving the next job.
//
// The all-nan library breaks every cell, so its diagnostics exhaust the
// error budget (Limits.MaxErrors) and the final budget-class marker
// makes it a 413, like any other input that trips a budget; a single
// nan is one semantic diagnostic and a 400.
func TestE2EPoisonedLibertyRejected(t *testing.T) {
	c, base := startServiceCfg(t, Config{JobWorkers: 1})
	ctx := ctxT(t)
	d, err := repro.Generate("c432")
	if err != nil {
		t.Fatal(err)
	}
	var net, lib bytes.Buffer
	if err := d.SaveBench(&net); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveLiberty(&lib); err != nil {
		t.Fatal(err)
	}
	values := regexp.MustCompile(`(?s)values \(.*?\);`)
	number := regexp.MustCompile(`[0-9][0-9.e+-]*`)
	allNaN := values.ReplaceAllStringFunc(lib.String(), func(g string) string {
		return number.ReplaceAllString(g, "nan")
	})
	first := values.FindStringIndex(lib.String())
	n := number.FindStringIndex(lib.String()[first[0]:first[1]])
	oneNaN := lib.String()[:first[0]+n[0]] + "nan" + lib.String()[first[0]+n[1]:]

	for _, tc := range []struct {
		name    string
		liberty string
		code    int
	}{
		{"all nan", allNaN, http.StatusRequestEntityTooLarge},
		{"one nan", oneNaN, http.StatusBadRequest},
	} {
		code, _, eb := postSubmit(t, base, client.JobRequest{
			Op: client.OpAnalyze, Bench: net.String(), Name: "c432", Liberty: tc.liberty, Workers: 1,
		})
		if code != tc.code {
			t.Fatalf("%s: HTTP %d (%+v), want %d", tc.name, code, eb, tc.code)
		}
		if len(eb.Diagnostics) == 0 {
			t.Fatalf("%s: rejection carries no diagnostics: %+v", tc.name, eb)
		}
		dg := eb.Diagnostics[0]
		if dg.Check != "semantic" || dg.Line == 0 || !strings.Contains(dg.Msg, "value NaN is not a finite non-negative number") {
			t.Fatalf("%s: first diagnostic is not the positioned Liberty check: %+v", tc.name, dg)
		}
	}

	st, err := c.Run(ctx, client.JobRequest{Op: client.OpAnalyze, Bench: net.String(), Name: "c432", Workers: 1})
	if err != nil || st.State != "done" {
		t.Fatalf("plain c432 after the rejected libraries: %v %+v", err, st)
	}
	var a client.AnalyzeResult
	if err := json.Unmarshal(st.Result, &a); err != nil {
		t.Fatal(err)
	}
	if !(a.Mean > 0 && a.Sigma > 0) {
		t.Fatalf("plain c432 analyzed to mean %g, sigma %g", a.Mean, a.Sigma)
	}
}
