package repro_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro"
	"repro/internal/benchfmt"
	"repro/internal/cells"
	"repro/internal/designcache"
)

// c432Texts returns c432's .bench, Verilog and Liberty text.
func c432Texts(t testing.TB) (bench, verilog, lib string) {
	t.Helper()
	d, err := repro.Generate("c432")
	if err != nil {
		t.Fatal(err)
	}
	var b, v, l bytes.Buffer
	for _, save := range []func() error{
		func() error { return d.SaveBench(&b) },
		func() error { return d.SaveVerilog(&v) },
		func() error { return d.SaveLiberty(&l) },
	} {
		if err := save(); err != nil {
			t.Fatal(err)
		}
	}
	return b.String(), v.String(), l.String()
}

// TestLoadDoorTable pins the one load door over format {bench, verilog}
// × library {default, inline Liberty}: a cancelled context returns the
// context error, MaxGates, MaxBytes and MaxErrors each fail with a typed
// budget error, and a clean load has the content address and the exact
// analysis pinned from the per-format loaders this door replaced.
func TestLoadDoorTable(t *testing.T) {
	bench, verilog, libText := c432Texts(t)
	lib, err := repro.LoadLiberty(strings.NewReader(libText), repro.IngestLimits{})
	if err != nil {
		t.Fatal(err)
	}
	formats := []struct {
		format, text, broken string
		hash                 string
		mean, sigma          float64
	}{
		{
			format: "bench", text: bench,
			// Two undriven references: two lint errors.
			broken: bench + "zz1 = AND(ghost1, ghost2)\n",
			hash:   "8d37e8b1f8dc9ab5a57e363e72a01da4065457910b355dcd79aa93d780c5723e",
			mean:   963.0723167488838, sigma: 62.640585424584344,
		},
		{
			format: "verilog", text: verilog,
			// Two unsupported statements: two syntax errors.
			broken: strings.Replace(verilog, "endmodule", "  frob b1 (y, a);\n  frob b2 (y, a);\nendmodule", 1),
			hash:   "fe4166b145e490ab73e5d49d354421eb533450a7673d4603088d2bfe5796cded",
			mean:   979.4521966380597, sigma: 59.83635168418532,
		},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, f := range formats {
		for _, l := range []struct {
			name string
			lib  *cells.Library
		}{{"default", nil}, {"inline", lib}} {
			t.Run(f.format+"/"+l.name, func(t *testing.T) {
				load := func(text string, lim repro.IngestLimits) (*repro.Design, error) {
					return repro.Load(strings.NewReader(text), repro.LoadSpec{
						Format: f.format, Name: "c432", Library: l.lib, Limits: lim,
					})
				}
				if _, err := load(f.text, repro.IngestLimits{Ctx: cancelled}); !errors.Is(err, context.Canceled) {
					t.Errorf("cancelled ctx: got %v", err)
				}
				for _, b := range []struct {
					name, text string
					lim        repro.IngestLimits
				}{
					{"MaxGates", f.text, repro.IngestLimits{MaxGates: 10}},
					{"MaxBytes", f.text, repro.IngestLimits{MaxBytes: 64}},
					{"MaxErrors", f.broken, repro.IngestLimits{MaxErrors: 2}},
				} {
					_, err := load(b.text, b.lim)
					if !repro.IsBudgetError(err) || len(repro.Diagnostics(err)) == 0 {
						t.Errorf("%s: want a budget error with diagnostics, got %v", b.name, err)
					}
				}
				if _, err := load(f.broken, repro.IngestLimits{}); err == nil || repro.IsBudgetError(err) || len(repro.Diagnostics(err)) != 2 {
					t.Errorf("broken text: want two non-budget diagnostics, got %v", err)
				}
				d, err := load(f.text, repro.IngestLimits{})
				if err != nil {
					t.Fatal(err)
				}
				h, err := designcache.HashDesign(d)
				if err != nil {
					t.Fatal(err)
				}
				if h != f.hash {
					t.Errorf("content address %s, want %s", h, f.hash)
				}
				a := d.AnalyzeOpts(repro.RunOptions{Workers: 1})
				if a.Mean != f.mean || a.Sigma != f.sigma {
					t.Errorf("analysis (%v, %v), want (%v, %v)", a.Mean, a.Sigma, f.mean, f.sigma)
				}
			})
		}
	}
}

// TestLoadLintDiagnostics: a .bench netlist failing lint is rejected
// with every error finding as a positioned diagnostic, named by check
// and gate, behind a "design fails lint" message.
func TestLoadLintDiagnostics(t *testing.T) {
	src := "INPUT(a)\nOUTPUT(y)\ng1 = AND(a, g2)\ng2 = NOT(g1)\ny = AND(g1, ghost)\n"
	_, err := repro.LoadBench(strings.NewReader(src), "bad")
	if err == nil || !strings.Contains(err.Error(), "design fails lint: 2 error(s)") {
		t.Fatalf("want a lint failure with 2 errors, got %v", err)
	}
	got := map[string]string{}
	for _, d := range repro.Diagnostics(err) {
		if d.Severity != "error" || d.Line == 0 {
			t.Errorf("diagnostic %+v: want a positioned error", d)
		}
		got[d.Check] = d.Gate
	}
	if got["cycle"] == "" || got["undriven"] != "y" {
		t.Fatalf("diagnostics %v: want a cycle and an undriven finding on y", repro.Diagnostics(err))
	}
}

// FuzzLoad drives arbitrary text through the load door in both formats.
// Load must never panic or hang; a .bench load must accept exactly when
// the strict benchfmt.Parse does; and an accepted design must analyze
// to finite numbers.
func FuzzLoad(f *testing.F) {
	f.Add(false, "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
	f.Add(false, "INPUT(a)\nOUTPUT(y)\ng1 = AND(a, g2)\ng2 = NOT(g1)\ny = NOT(a)\n")
	f.Add(false, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b, a, b, a, b, a, b, a)\n")
	f.Add(false, "INPUT(a)\nOUTPUT(a)\n")
	f.Add(false, "y = DFF(d)\n")
	f.Add(true, "module m(a, y);\n  input a;\n  output y;\n  not g1(y, a);\nendmodule\n")
	f.Add(true, "module m(y);\n  output y;\n  nand g1(y, a,;\nendmodule\n")
	f.Add(true, "module m(a, b, y);\n  input a, b;\n  output y;\n  wire n1;\n  nand g1(n1, a, b);\n  xor g2(y, n1, a);\nendmodule\n")
	f.Fuzz(func(t *testing.T, isVerilog bool, src string) {
		format := "bench"
		if isVerilog {
			format = "verilog"
		}
		d, err := repro.Load(strings.NewReader(src), repro.LoadSpec{Format: format, Name: "fuzz"})
		if !isVerilog {
			_, perr := benchfmt.Parse(strings.NewReader(src), "fuzz")
			if (err == nil) != (perr == nil) {
				t.Fatalf("Load error %v, benchfmt.Parse error %v\nsrc:\n%s", err, perr, src)
			}
		}
		if err != nil {
			return
		}
		a := d.AnalyzeOpts(repro.RunOptions{Workers: 1})
		for _, v := range []float64{a.Mean, a.Sigma, a.NominalDelay} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted design analyzes to (%v, %v, %v)\nsrc:\n%s", a.Mean, a.Sigma, a.NominalDelay, src)
			}
		}
	})
}

// BenchmarkLoadBench measures the .bench door every sstad submission of
// an inline netlist goes through, on c2670: one parse under the default
// budgets, lint, build and map.
func BenchmarkLoadBench(b *testing.B) {
	d, err := repro.Generate("c2670")
	if err != nil {
		b.Fatal(err)
	}
	var text bytes.Buffer
	if err := d.SaveBench(&text); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.Load(bytes.NewReader(text.Bytes()), repro.LoadSpec{Name: "c2670"}); err != nil {
			b.Fatal(err)
		}
	}
}
