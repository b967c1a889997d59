package repro

import (
	"bytes"
	"context"
	"errors"
	"regexp"
	"strings"
	"testing"

	"repro/internal/ingest"
)

func TestVerilogRoundTripThroughFacade(t *testing.T) {
	d, err := Generate("alu2")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SaveVerilog(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(&buf, LoadSpec{Format: "verilog", Name: "alu2"})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Stats().Inputs != d.Stats().Inputs || d2.Stats().Outputs != d.Stats().Outputs {
		t.Fatal("verilog round trip changed port counts")
	}
}

func TestLibertyRoundTripThroughFacade(t *testing.T) {
	d, err := Generate("c432")
	if err != nil {
		t.Fatal(err)
	}
	var lib bytes.Buffer
	if err := d.SaveLiberty(&lib); err != nil {
		t.Fatal(err)
	}
	parsed, err := LoadLiberty(&lib, IngestLimits{})
	if err != nil {
		t.Fatal(err)
	}
	// Remap the same netlist onto the re-imported library: analysis must
	// agree with the original to float accuracy.
	var net bytes.Buffer
	if err := d.SaveBench(&net); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(&net, LoadSpec{Name: "c432", Library: parsed})
	if err != nil {
		t.Fatal(err)
	}
	a1, a2 := d.Analyze(), d2.Analyze()
	if diff := abs(a1.Mean-a2.Mean) / a1.Mean; diff > 1e-9 {
		t.Fatalf("Liberty round trip changed timing: %g vs %g", a1.Mean, a2.Mean)
	}
}

func TestAnalyzeCorrelated(t *testing.T) {
	d, err := Generate("c499")
	if err != nil {
		t.Fatal(err)
	}
	r := d.AnalyzeCorrelated(0.6)
	if r.Sigma <= r.IndependentSigma {
		t.Errorf("correlated sigma %g not above independent %g on a reconvergent circuit",
			r.Sigma, r.IndependentSigma)
	}
	if r.Mean <= 0 {
		t.Fatal("bad mean")
	}
}

// benchRoundTrip asserts Load(Save(Load(x))) is a fixed point: the
// second save must be byte-identical to the first, and the re-parsed
// design must analyze identically (same netlist, same mapping).
func benchRoundTrip(t *testing.T, name string) {
	t.Helper()
	d, err := Generate(name)
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := d.SaveBench(&first); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadBench(bytes.NewReader(first.Bytes()), name)
	if err != nil {
		t.Fatalf("re-parse saved .bench: %v", err)
	}
	var second bytes.Buffer
	if err := d2.SaveBench(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf(".bench text not a fixed point under Load+Save:\n--- first ---\n%s\n--- second ---\n%s",
			first.String(), second.String())
	}
	s1, s2 := d.Stats(), d2.Stats()
	if s1 != s2 {
		t.Fatalf(".bench round trip changed stats: %+v vs %+v", s1, s2)
	}
	a1, a2 := d.AnalyzeOpts(RunOptions{Workers: 1}), d2.AnalyzeOpts(RunOptions{Workers: 1})
	if a1.Mean != a2.Mean || a1.Sigma != a2.Sigma || a1.NominalDelay != a2.NominalDelay {
		t.Fatalf(".bench round trip changed timing: (%g, %g, %g) vs (%g, %g, %g)",
			a1.Mean, a1.Sigma, a1.NominalDelay, a2.Mean, a2.Sigma, a2.NominalDelay)
	}
}

func TestBenchRoundTripC432(t *testing.T) { benchRoundTrip(t, "c432") }
func TestBenchRoundTripALU3(t *testing.T) { benchRoundTrip(t, "alu3") }

func TestLoadVerilogOptsBudget(t *testing.T) {
	d, err := Generate("alu2")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SaveVerilog(&buf); err != nil {
		t.Fatal(err)
	}
	_, err = Load(bytes.NewReader(buf.Bytes()), LoadSpec{Format: "verilog", Name: "alu2", Limits: IngestLimits{MaxBytes: 64}})
	if !IsBudgetError(err) {
		t.Fatalf("want budget error, got %v", err)
	}
	diags := Diagnostics(err)
	if len(diags) == 0 {
		t.Fatal("budget error carries no diagnostics")
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()), LoadSpec{Format: "verilog", Name: "alu2"}); err != nil {
		t.Fatalf("default limits rejected a real design: %v", err)
	}
}

func TestLoadVerilogWithLibraryAgrees(t *testing.T) {
	d, err := Generate("c432")
	if err != nil {
		t.Fatal(err)
	}
	var lib, net bytes.Buffer
	if err := d.SaveLiberty(&lib); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveVerilog(&net); err != nil {
		t.Fatal(err)
	}
	parsed, err := LoadLiberty(&lib, IngestLimits{})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Load(&net, LoadSpec{Format: "verilog", Name: "c432", Library: parsed})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Stats().Inputs != d.Stats().Inputs || d2.Stats().Outputs != d.Stats().Outputs {
		t.Fatal("verilog+liberty load changed port counts")
	}
}

func TestLoadBenchCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Load(strings.NewReader("INPUT(a)\nOUTPUT(a)\n"), LoadSpec{Name: "x", Limits: IngestLimits{Ctx: ctx}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestDiagnosticsOnMalformedVerilog(t *testing.T) {
	_, err := Load(strings.NewReader("module m(; endmodule"), LoadSpec{Format: "verilog", Name: "m"})
	if err == nil {
		t.Fatal("malformed verilog accepted")
	}
	if IsBudgetError(err) {
		t.Fatal("syntax error misclassified as budget")
	}
	diags := Diagnostics(err)
	if len(diags) == 0 {
		t.Fatal("no diagnostics on malformed input")
	}
	if diags[0].Line == 0 {
		t.Fatalf("diagnostic missing position: %+v", diags[0])
	}
}

// TestLibertyWithoutTransitionsRejected: a library whose cells carry no
// rise/fall transition tables is refused at load with a positioned
// semantic diagnostic. Such a library used to load, map c432 and then
// panic in the first output-slew lookup of Analyze.
func TestLibertyWithoutTransitionsRejected(t *testing.T) {
	d, err := Generate("c432")
	if err != nil {
		t.Fatal(err)
	}
	var lib bytes.Buffer
	if err := d.SaveLiberty(&lib); err != nil {
		t.Fatal(err)
	}
	src := regexp.MustCompile(`(?s)\s*(rise|fall)_transition \(.*?\}`).ReplaceAllString(lib.String(), "")
	parsed, err := LoadLiberty(strings.NewReader(src), IngestLimits{})
	if err == nil {
		var net bytes.Buffer
		if err := d.SaveBench(&net); err != nil {
			t.Fatal(err)
		}
		d2, err := Load(&net, LoadSpec{Name: "c432", Library: parsed})
		if err == nil {
			d2.Analyze()
		}
		t.Fatal("library without transition tables accepted")
	}
	diags := Diagnostics(err)
	if len(diags) == 0 || diags[0].Check != ingest.CheckSemantic || diags[0].Line == 0 ||
		!strings.Contains(diags[0].Msg, "has no transition tables") {
		t.Fatalf("want a positioned semantic missing-transition diagnostic, got %v", err)
	}
	if line := strings.Split(src, "\n")[diags[0].Line-1]; !strings.Contains(line, "cell (") {
		t.Fatalf("diagnostic points at %q, not at a cell", line)
	}
}
