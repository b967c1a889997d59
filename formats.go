package repro

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"repro/internal/benchfmt"
	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/circuitlint"
	"repro/internal/corrssta"
	"repro/internal/ingest"
	"repro/internal/liberty"
	"repro/internal/verilog"
)

// IngestLimits is the public budget envelope for loading untrusted
// netlist and library text (see ingest.Limits for the fields). Zero
// fields select production defaults and Ctx cancels the parse. Budget
// violations surface as an error for which IsBudgetError reports true,
// while malformed input carries positioned diagnostics (Diagnostics).
type IngestLimits = ingest.Limits

// IsBudgetError reports whether err is an ingestion failure caused by a
// resource budget (input too big, too deep, too many elements) rather
// than malformed input. Servers map budget failures to HTTP 413 and
// malformed input to 400.
func IsBudgetError(err error) bool { return ingest.IsBudget(err) }

// Diagnostics returns the positioned diagnostics attached to an
// ingestion error, or nil if err carries none. Each entry has the
// check class, severity, line/column and message of one problem.
func Diagnostics(err error) []ingest.Diagnostic {
	if ie, ok := ingest.As(err); ok {
		return ie.Diags
	}
	return nil
}

// LoadSpec says how Load reads a netlist.
type LoadSpec struct {
	// Format is "bench" (ISCAS .bench, also when empty) or "verilog"
	// (gate-level structural Verilog, primitive gates only).
	Format string
	// Name is the design name: .bench has no name line, and a Verilog
	// module without one falls back to it.
	Name string
	// Library is the cell library the netlist is mapped onto; nil selects
	// the shared default library (see FromCircuit).
	Library *cells.Library
	// Limits is the budget envelope of the parse, Limits.Ctx included.
	Limits IngestLimits
}

// Load is the one door through which netlist text becomes a Design. The
// parse streams r once under spec.Limits: the context is polled while it
// runs, and an exceeded budget fails it with a budget diagnostic
// (IsBudgetError). A .bench netlist is parsed to its raw form, linted
// (internal/circuitlint), then built; error-severity lint findings fail
// the load as one error whose Diagnostics list every finding, up to
// Limits.MaxErrors. The circuit is then mapped onto spec.Library.
func Load(r io.Reader, spec LoadSpec) (*Design, error) {
	var (
		c   *circuit.Circuit
		err error
	)
	switch spec.Format {
	case "", "bench":
		c, err = loadBench(r, spec.Name, spec.Limits)
	case "verilog":
		c, err = verilog.ParseOpts(r, spec.Name, spec.Limits)
	default:
		return nil, fmt.Errorf("unknown netlist format %q (want bench|verilog)", spec.Format)
	}
	if err != nil {
		return nil, err
	}
	lib := spec.Library
	if lib == nil {
		lib = defaultLibrary()
	}
	return mapDesign(c, lib)
}

// loadBench tokenizes .bench text once: the raw netlist is linted and
// then built, so lint and Build read the same parse.
func loadBench(r io.Reader, name string, lim IngestLimits) (*circuit.Circuit, error) {
	nl, err := benchfmt.ParseNetlistOpts(r, name, lim)
	if err != nil {
		return nil, err
	}
	if errs := circuitlint.Errors(circuitlint.LintNetlist(nl)); len(errs) > 0 {
		diag := ingest.NewCollector("bench", lim.WithDefaults())
		for _, d := range errs {
			if !diag.Add(ingest.Diagnostic(d)) {
				break
			}
		}
		return nil, fmt.Errorf("design fails lint: %d error(s): %w", len(errs), diag.Err())
	}
	return nl.Build()
}

// SaveVerilog writes the design's netlist as structural Verilog.
func (d *Design) SaveVerilog(w io.Writer) error {
	return verilog.Write(w, d.d.Circuit)
}

// defaultLiberty is the Liberty text of defaultLibrary, rendered once per
// process: every content address of a default-library design covers it.
var defaultLiberty = sync.OnceValues(func() ([]byte, error) {
	var buf bytes.Buffer
	err := liberty.Write(&buf, defaultLibrary())
	return buf.Bytes(), err
})

// SaveLiberty exports the design's cell library in Liberty (.lib) format.
// Designs on the shared default library (every FromCircuit design) write
// its text rendered once per process; any other library is rendered on
// each call. Both give the same bytes for libraries of equal content.
func (d *Design) SaveLiberty(w io.Writer) error {
	if d.d.Lib != defaultLibrary() {
		return liberty.Write(w, d.d.Lib)
	}
	text, err := defaultLiberty()
	if err != nil {
		return err
	}
	_, err = w.Write(text)
	return err
}

// LoadLiberty reads a Liberty library (the subset SaveLiberty writes)
// under the budget envelope lim, for use as LoadSpec.Library.
func LoadLiberty(r io.Reader, lim IngestLimits) (*cells.Library, error) {
	return liberty.ParseOpts(r, lim)
}

// CorrelatedAnalysis reports a correlation-aware timing analysis.
type CorrelatedAnalysis struct {
	Mean, Sigma float64
	// IndependentSigma is what the independence-assuming FULLSSTA
	// reports on the same design, for comparison.
	IndependentSigma float64
}

// AnalyzeCorrelated runs the canonical-form correlation-aware engine
// (the paper's suggested PCA-style outer-loop upgrade) with the given
// fraction of each gate's delay variance spatially shared (0 < share <= 1).
func (d *Design) AnalyzeCorrelated(share float64) *CorrelatedAnalysis {
	r := corrssta.Analyze(d.d, d.vm, corrssta.Options{Share: share})
	indep := d.Analyze()
	return &CorrelatedAnalysis{Mean: r.Mean, Sigma: r.Sigma, IndependentSigma: indep.Sigma}
}
