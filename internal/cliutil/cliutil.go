// Package cliutil holds the small pieces shared by every command-line
// entry point: the -workers flag (one registration point so the help
// text stays consistent across cmd/ssta, cmd/svsize, cmd/repro and
// cmd/sstad) and its validation. The engines treat Workers <= 0 as "one
// per available CPU" internally, but at the CLI boundary a negative
// value is almost always a typo (e.g. "-workers -4" intending 4), so
// the commands reject it with a clear error instead of silently
// saturating the host. It also owns the shared -lint and -ingest-max-*
// knobs and the commands' one file-loading door, LoadNetlist, which
// streams every netlist through repro.Load (see internal/circuitlint for
// the structural lint).
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro"
	"repro/internal/circuitlint"
)

// WorkersFlag registers the shared -workers knob on fs (use
// flag.CommandLine for commands that parse global flags). It changes
// speed only: the analysis engines and the optimizers produce identical
// numbers for any value.
func WorkersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0,
		"engine worker goroutines (0 = all CPUs, 1 = serial; results are identical for any value)")
}

// CheckWorkers validates a parsed -workers value: 0 (all CPUs) and any
// positive count are accepted, negatives are rejected with an error that
// names the flag.
func CheckWorkers(n int) error {
	if n < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = all CPUs), got %d", n)
	}
	return nil
}

// ParseWorkers is the one-call form used by tests and commands that
// build their own flag sets: it parses args against fs (which must have
// been given the flag via WorkersFlag) and validates the result.
func ParseWorkers(fs *flag.FlagSet, workers *int, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	return CheckWorkers(*workers)
}

// CheckSeconds validates a seconds-valued knob (a request field like
// timeout_sec, or a float flag): it must be a finite number >= 0. NaN
// in particular would slip through a plain "< 0" comparison (every
// comparison with NaN is false) and then poison every duration derived
// from it, so it is rejected by name here.
func CheckSeconds(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%s must be a finite number of seconds, got %v", name, v)
	}
	if v < 0 {
		return fmt.Errorf("%s must be >= 0 seconds, got %g", name, v)
	}
	return nil
}

// CheckDuration validates a duration-valued flag: zero (disabled or
// "use the default") and positive values are accepted, negatives
// rejected with an error naming the flag.
func CheckDuration(name string, d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("%s must be >= 0, got %v", name, d)
	}
	return nil
}

// CheckAttempts validates a bounded-retry count flag (sstad's
// -max-attempts): 0 selects the built-in default, positive counts are
// taken literally, negatives are rejected.
func CheckAttempts(name string, n int) error {
	if n < 0 {
		return fmt.Errorf("%s must be >= 0 (0 = default), got %d", name, n)
	}
	return nil
}

// LintFlag registers the shared -lint knob: the structural design
// linter (internal/circuitlint) runs on every design entering a command
// unless explicitly disabled.
func LintFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("lint", true,
		"run the structural design linter before analysis; error findings abort (-lint=false skips it, except for .bench netlists, which are always linted at load)")
}

// IngestFlags is the shared set of -ingest-max-* overrides: one
// registration point so the budget knobs read identically across
// cmd/ssta, cmd/svsize and cmd/sstad. Zero values select the production
// defaults of internal/ingest.
type IngestFlags struct {
	MaxBytes  *int64
	MaxTokens *int64
	MaxIdent  *int
	MaxDepth  *int
	MaxGates  *int
	MaxNets   *int
	MaxErrors *int
}

// RegisterIngestFlags registers the -ingest-max-* knobs on fs.
func RegisterIngestFlags(fs *flag.FlagSet) *IngestFlags {
	return &IngestFlags{
		MaxBytes:  fs.Int64("ingest-max-bytes", 0, "cap raw netlist/library input bytes (0 = default)"),
		MaxTokens: fs.Int64("ingest-max-tokens", 0, "cap lexical tokens per parse (0 = default)"),
		MaxIdent:  fs.Int("ingest-max-ident", 0, "cap identifier/string length in bytes (0 = default)"),
		MaxDepth:  fs.Int("ingest-max-depth", 0, "cap grouping/paren nesting depth (0 = default)"),
		MaxGates:  fs.Int("ingest-max-gates", 0, "cap gate/cell definitions per parse (0 = default)"),
		MaxNets:   fs.Int("ingest-max-nets", 0, "cap declared nets/ports/pins per parse (0 = default)"),
		MaxErrors: fs.Int("ingest-max-errors", 0, "cap recoverable diagnostics before aborting (0 = default)"),
	}
}

// Check rejects negative budget overrides by flag name (0 = default).
func (f *IngestFlags) Check() error {
	for _, k := range []struct {
		name string
		v    int64
	}{
		{"-ingest-max-bytes", *f.MaxBytes},
		{"-ingest-max-tokens", *f.MaxTokens},
		{"-ingest-max-ident", int64(*f.MaxIdent)},
		{"-ingest-max-depth", int64(*f.MaxDepth)},
		{"-ingest-max-gates", int64(*f.MaxGates)},
		{"-ingest-max-nets", int64(*f.MaxNets)},
		{"-ingest-max-errors", int64(*f.MaxErrors)},
	} {
		if k.v < 0 {
			return fmt.Errorf("%s must be >= 0 (0 = default), got %d", k.name, k.v)
		}
	}
	return nil
}

// Limits converts the parsed overrides into the public budget envelope.
func (f *IngestFlags) Limits() repro.IngestLimits {
	return repro.IngestLimits{
		MaxBytes: *f.MaxBytes, MaxTokens: *f.MaxTokens,
		MaxIdent: *f.MaxIdent, MaxDepth: *f.MaxDepth,
		MaxGates: *f.MaxGates, MaxNets: *f.MaxNets,
		MaxErrors: *f.MaxErrors,
	}
}

// CheckFormat validates a -format flag value.
func CheckFormat(format string) error {
	switch format {
	case "", "bench", "verilog":
		return nil
	}
	return fmt.Errorf("-format must be bench or verilog, got %q", format)
}

// LoadDesign is the commands' input selection, spelled the same on
// every CLI: -gen names a built-in benchmark (linted, on the default
// library), or -bench names a netlist file in -format, optionally
// mapped onto the -liberty library (see LoadNetlist).
func LoadDesign(genName, bench, format, libertyPath string, lim repro.IngestLimits, lint bool, w io.Writer) (*repro.Design, error) {
	switch {
	case genName != "" && bench != "":
		return nil, fmt.Errorf("use either -gen or -bench, not both")
	case genName != "":
		if libertyPath != "" {
			return nil, fmt.Errorf("-liberty does not combine with -gen (built-ins use the default library)")
		}
		d, err := repro.Generate(genName)
		if err != nil {
			return nil, err
		}
		return d, CheckDesign(d, lint, w)
	case bench != "":
		return LoadNetlist(bench, format, libertyPath, lim, lint, w)
	}
	return nil, fmt.Errorf("no input: pass -gen <name> or -bench <file>")
}

// LoadNetlist is the commands' governed front door: it streams a netlist
// file in the named format ("bench", the default, or "verilog") through
// repro.Load under the budget envelope, optionally mapping it onto a
// Liberty library file instead of the default library. The diagnostics
// of a failed load go to w. A .bench netlist is always linted at load;
// a Verilog design is design-linted after the build when lint is true.
func LoadNetlist(path, format, libertyPath string, lim repro.IngestLimits, lint bool, w io.Writer) (*repro.Design, error) {
	spec := repro.LoadSpec{Format: format, Name: path, Limits: lim}
	if libertyPath != "" {
		lf, err := os.Open(libertyPath)
		if err != nil {
			return nil, err
		}
		spec.Library, err = repro.LoadLiberty(lf, lim)
		lf.Close()
		if err != nil {
			printDiagnostics(w, err)
			return nil, fmt.Errorf("%s: %w", libertyPath, err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := repro.Load(f, spec)
	if err != nil {
		printDiagnostics(w, err)
		return nil, err
	}
	if format == "verilog" {
		if err := CheckDesign(d, lint, w); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// printDiagnostics writes the positioned diagnostics of a failed load to
// w, one per line.
func printDiagnostics(w io.Writer, err error) {
	for _, d := range repro.Diagnostics(err) {
		fmt.Fprintln(w, d)
	}
}

// CheckDesign lints an already-built design (generated benchmarks,
// Verilog or Liberty-mapped sources, where no raw .bench text exists).
// Diagnostics go to w; error-severity findings become an error.
func CheckDesign(d *repro.Design, lint bool, w io.Writer) error {
	if !lint {
		return nil
	}
	sd, _ := d.Internal()
	diags := circuitlint.LintDesign(sd)
	if len(diags) > 0 {
		fmt.Fprint(w, circuitlint.Format(diags))
	}
	if circuitlint.HasErrors(diags) {
		return fmt.Errorf("design fails lint: %d error finding(s)", len(circuitlint.Errors(diags)))
	}
	return nil
}
