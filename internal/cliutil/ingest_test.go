package cliutil

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

func parseIngest(t *testing.T, args ...string) (*IngestFlags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := RegisterIngestFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return f, f.Check()
}

func TestIngestFlagsDefaultToZero(t *testing.T) {
	f, err := parseIngest(t)
	if err != nil {
		t.Fatal(err)
	}
	if lim := f.Limits(); lim != (repro.IngestLimits{}) {
		t.Fatalf("default limits not zero: %+v", lim)
	}
}

func TestIngestFlagsParseAndConvert(t *testing.T) {
	f, err := parseIngest(t,
		"-ingest-max-bytes", "1024", "-ingest-max-tokens", "2048",
		"-ingest-max-ident", "64", "-ingest-max-depth", "8",
		"-ingest-max-gates", "100", "-ingest-max-nets", "200",
		"-ingest-max-errors", "5")
	if err != nil {
		t.Fatal(err)
	}
	want := repro.IngestLimits{
		MaxBytes: 1024, MaxTokens: 2048, MaxIdent: 64, MaxDepth: 8,
		MaxGates: 100, MaxNets: 200, MaxErrors: 5,
	}
	if got := f.Limits(); got != want {
		t.Fatalf("limits = %+v, want %+v", got, want)
	}
}

func TestIngestFlagsRejectNegativesByName(t *testing.T) {
	for _, flagName := range []string{
		"-ingest-max-bytes", "-ingest-max-tokens", "-ingest-max-ident",
		"-ingest-max-depth", "-ingest-max-gates", "-ingest-max-nets",
		"-ingest-max-errors",
	} {
		_, err := parseIngest(t, flagName+"=-1")
		if err == nil {
			t.Fatalf("%s=-1 accepted", flagName)
		}
		if !strings.Contains(err.Error(), flagName) {
			t.Fatalf("error does not name %s: %v", flagName, err)
		}
	}
}

func TestCheckFormat(t *testing.T) {
	for _, ok := range []string{"", "bench", "verilog"} {
		if err := CheckFormat(ok); err != nil {
			t.Fatalf("CheckFormat(%q): %v", ok, err)
		}
	}
	if err := CheckFormat("edif"); err == nil || !strings.Contains(err.Error(), "-format") {
		t.Fatalf("bad format not rejected by name: %v", err)
	}
}

func writeTempDesign(t *testing.T) (benchPath, verilogPath, libPath string) {
	t.Helper()
	d, err := repro.Generate("alu1")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var net, vlog, lib bytes.Buffer
	if err := d.SaveBench(&net); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveVerilog(&vlog); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveLiberty(&lib); err != nil {
		t.Fatal(err)
	}
	benchPath = filepath.Join(dir, "alu1.bench")
	verilogPath = filepath.Join(dir, "alu1.v")
	libPath = filepath.Join(dir, "alu1.lib")
	for p, b := range map[string]*bytes.Buffer{benchPath: &net, verilogPath: &vlog, libPath: &lib} {
		if err := os.WriteFile(p, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return benchPath, verilogPath, libPath
}

func TestLoadNetlistAllFormats(t *testing.T) {
	benchPath, verilogPath, libPath := writeTempDesign(t)
	var out bytes.Buffer
	cases := []struct {
		name, path, format, lib string
	}{
		{"bench", benchPath, "bench", ""},
		{"bench default format", benchPath, "", ""},
		{"bench with liberty", benchPath, "bench", libPath},
		{"verilog", verilogPath, "verilog", ""},
		{"verilog with liberty", verilogPath, "verilog", libPath},
		{"verilog without lint", verilogPath, "verilog", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lint := tc.name != "verilog without lint"
			d, err := LoadNetlist(tc.path, tc.format, tc.lib, repro.IngestLimits{}, lint, &out)
			if err != nil {
				t.Fatal(err)
			}
			if d.Stats().Gates == 0 {
				t.Fatal("loaded an empty design")
			}
		})
	}
}

func TestLoadNetlistRejectsOverBudget(t *testing.T) {
	benchPath, verilogPath, _ := writeTempDesign(t)
	for _, tc := range []struct{ format, path string }{{"bench", benchPath}, {"verilog", verilogPath}} {
		_, err := LoadNetlist(tc.path, tc.format, "", repro.IngestLimits{MaxBytes: 32}, true, io.Discard)
		if !repro.IsBudgetError(err) {
			t.Fatalf("%s: want budget error, got %v", tc.format, err)
		}
	}
}

// TestLoadNetlistReportsBadFiles: a missing netlist or library file is
// an error, and a malformed library prints its positioned diagnostics.
func TestLoadNetlistReportsBadFiles(t *testing.T) {
	benchPath, _, _ := writeTempDesign(t)
	dir := t.TempDir()
	badLib := filepath.Join(dir, "bad.lib")
	if err := os.WriteFile(badLib, []byte("library (x) {\n  cell ( {\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, path, lib string
		printed         bool
	}{
		{"missing netlist", filepath.Join(dir, "none.bench"), "", false},
		{"missing library", benchPath, filepath.Join(dir, "none.lib"), false},
		{"malformed library", benchPath, badLib, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if _, err := LoadNetlist(tc.path, "bench", tc.lib, repro.IngestLimits{}, true, &out); err == nil {
				t.Fatal("load succeeded")
			}
			if printed := out.Len() > 0; printed != tc.printed {
				t.Fatalf("diagnostics printed = %v, want %v: %q", printed, tc.printed, out.String())
			}
		})
	}
}

func TestLoadNetlistRejectsUnknownFormat(t *testing.T) {
	benchPath, _, _ := writeTempDesign(t)
	if _, err := LoadNetlist(benchPath, "edif", "", repro.IngestLimits{}, true, io.Discard); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestLoadNetlistLintAborts(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.bench")
	// y references an undefined net: a structural lint error.
	if err := os.WriteFile(bad, []byte("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := LoadNetlist(bad, "bench", "", repro.IngestLimits{}, true, &out); err == nil {
		t.Fatal("lint-failing netlist accepted")
	}
	if out.Len() == 0 {
		t.Fatal("no diagnostics printed")
	}
}

// TestLoadDesignSelectsOneInput pins the commands' shared input
// selection: exactly one of -gen and -bench, and -liberty only with a
// netlist file.
func TestLoadDesignSelectsOneInput(t *testing.T) {
	benchPath, verilogPath, libPath := writeTempDesign(t)
	for _, tc := range []struct {
		name, gen, bench, format, lib, err string
	}{
		{"gen", "alu1", "", "", "", ""},
		{"verilog with liberty", "", verilogPath, "verilog", libPath, ""},
		{"both", "alu1", benchPath, "", "", "not both"},
		{"gen with liberty", "alu1", "", "", libPath, "does not combine"},
		{"neither", "", "", "", "", "no input"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := LoadDesign(tc.gen, tc.bench, tc.format, tc.lib, repro.IngestLimits{}, true, io.Discard)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("want error containing %q, got %v", tc.err, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if d.Stats().Gates == 0 {
				t.Fatal("loaded an empty design")
			}
		})
	}
}
