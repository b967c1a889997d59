package repro

import (
	"bytes"
	"context"
	"io"
	"sync"

	"repro/internal/benchfmt"
	"repro/internal/cells"
	"repro/internal/corrssta"
	"repro/internal/ingest"
	"repro/internal/liberty"
	"repro/internal/synth"
	"repro/internal/variation"
	"repro/internal/verilog"
)

// IngestLimits is the public budget envelope for loading untrusted
// netlist and library text. Zero fields select production defaults
// (see internal/ingest); it exists so callers outside the module can
// govern a load without importing internal packages. Budget violations
// surface as an error for which IsBudgetError reports true, while
// malformed input carries positioned diagnostics (Diagnostics).
type IngestLimits struct {
	// Ctx is polled at token granularity during the parse; nil means
	// context.Background. Cancellation surfaces as the ctx error, not
	// as a budget violation.
	Ctx context.Context
	// MaxBytes bounds raw input size; MaxTokens the lexical token
	// count; MaxIdent one identifier or string; MaxDepth nesting;
	// MaxGates/MaxNets circuit element counts; MaxErrors the
	// recoverable-diagnostic list.
	MaxBytes           int64
	MaxTokens          int64
	MaxIdent, MaxDepth int
	MaxGates, MaxNets  int
	MaxErrors          int
}

func (l IngestLimits) internal() ingest.Limits {
	return ingest.Limits{
		Ctx: l.Ctx, MaxBytes: l.MaxBytes, MaxTokens: l.MaxTokens,
		MaxIdent: l.MaxIdent, MaxDepth: l.MaxDepth,
		MaxGates: l.MaxGates, MaxNets: l.MaxNets, MaxErrors: l.MaxErrors,
	}
}

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

// LoadVerilog parses a gate-level structural Verilog module (primitive
// gates only) and maps it onto the default library.
func LoadVerilog(r io.Reader, name string) (*Design, error) {
	c, err := verilog.Parse(r, name)
	if err != nil {
		return nil, err
	}
	return FromCircuit(c)
}

// LoadVerilogOpts is LoadVerilog under an explicit budget envelope: the
// parse streams the input, never materializes it, and stops at the
// first exceeded budget or at ctx cancellation.
func LoadVerilogOpts(r io.Reader, name string, lim IngestLimits) (*Design, error) {
	c, err := verilog.ParseOpts(r, name, lim.internal())
	if err != nil {
		return nil, err
	}
	return FromCircuit(c)
}

// LoadVerilogWithLibrary parses structural Verilog under the budget
// envelope and maps it onto the given library instead of the default.
func LoadVerilogWithLibrary(r io.Reader, name string, lib *cells.Library, lim IngestLimits) (*Design, error) {
	c, err := verilog.ParseOpts(r, name, lim.internal())
	if err != nil {
		return nil, err
	}
	d, err := synth.Map(c, lib)
	if err != nil {
		return nil, err
	}
	return &Design{d: d, vm: variation.Default(lib)}, nil
}

// SaveVerilog writes the design's netlist as structural Verilog.
func (d *Design) SaveVerilog(w io.Writer) error {
	return verilog.Write(w, d.d.Circuit)
}

// LoadBenchSeq parses an ISCAS-89-style sequential .bench netlist,
// cutting registers into pseudo primary inputs/outputs so the
// register-to-register combinational core can be analyzed and sized. The
// returned FF list records the cut points (Q net, D net).
func LoadBenchSeq(r io.Reader, name string) (*Design, []benchfmt.FF, error) {
	c, info, err := benchfmt.ParseSeq(r, name)
	if err != nil {
		return nil, nil, err
	}
	d, err := FromCircuit(c)
	if err != nil {
		return nil, nil, err
	}
	return d, info.FFs, nil
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

// LoadLiberty reads a Liberty library (the subset written by SaveLiberty)
// for use with LoadBenchWithLibrary.
func LoadLiberty(r io.Reader) (*cells.Library, error) {
	return liberty.Parse(r)
}

// LoadLibertyOpts is LoadLiberty under an explicit budget envelope.
func LoadLibertyOpts(r io.Reader, lim IngestLimits) (*cells.Library, error) {
	return liberty.ParseOpts(r, lim.internal())
}

// LoadBenchCtx is LoadBench with cancellation: the line scan polls ctx
// so a load on behalf of a cancelled request stops mid-file.
func LoadBenchCtx(ctx context.Context, r io.Reader, name string) (*Design, error) {
	c, err := benchfmt.ParseCtx(ctx, r, name)
	if err != nil {
		return nil, err
	}
	return FromCircuit(c)
}

// LoadBenchWithLibrary parses a .bench netlist and maps it onto the
// given library.
func LoadBenchWithLibrary(r io.Reader, name string, lib *cells.Library) (*Design, error) {
	c, err := benchfmt.Parse(r, name)
	if err != nil {
		return nil, err
	}
	d, err := synth.Map(c, lib)
	if err != nil {
		return nil, err
	}
	return &Design{d: d, vm: variation.Default(lib)}, nil
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
