package circuitlint_test

import (
	"strings"
	"testing"

	repro "repro"
	"repro/internal/benchfmt"
	"repro/internal/circuitlint"
)

// collect returns the checks of the diagnostics, in order, for compact
// assertions.
func checks(diags []circuitlint.Diagnostic) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = d.Check
	}
	return out
}

func hasCheck(diags []circuitlint.Diagnostic, check, gate string) bool {
	for _, d := range diags {
		if d.Check == check && (gate == "" || d.Gate == gate) {
			return true
		}
	}
	return false
}

func TestLintCleanNetlist(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y)
n1 = NAND(a, b)
y = NOT(n1)
`
	if diags := circuitlint.LintText(src, "clean"); len(diags) != 0 {
		t.Fatalf("clean netlist produced diagnostics:\n%s", circuitlint.Format(diags))
	}
}

func TestLintCycle(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(y)
g1 = AND(a, g3)
g2 = NOT(g1)
g3 = NOT(g2)
y = NOT(g3)
`
	diags := circuitlint.LintText(src, "cyclic")
	if !hasCheck(diags, circuitlint.CheckCycle, "g1") {
		t.Fatalf("want cycle diagnostic anchored at g1, got %v\n%s", checks(diags), circuitlint.Format(diags))
	}
	if !circuitlint.HasErrors(diags) {
		t.Fatal("cycle must be error severity")
	}
	d := diags[0]
	if d.Line == 0 || !strings.Contains(d.Msg, "g2") || !strings.Contains(d.Msg, "g3") {
		t.Fatalf("cycle diagnostic should carry line and members: %+v", d)
	}
}

func TestLintSelfLoop(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(y)
y = AND(a, y)
`
	diags := circuitlint.LintText(src, "self")
	if !hasCheck(diags, circuitlint.CheckCycle, "y") {
		t.Fatalf("want self-loop cycle diagnostic, got:\n%s", circuitlint.Format(diags))
	}
}

func TestLintUndriven(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(y)
OUTPUT(zz)
y = AND(a, ghost)
`
	diags := circuitlint.LintText(src, "undriven")
	if !hasCheck(diags, circuitlint.CheckUndriven, "y") {
		t.Fatalf("want undriven fanin diagnostic on gate y, got:\n%s", circuitlint.Format(diags))
	}
	if !hasCheck(diags, circuitlint.CheckUndriven, "zz") {
		t.Fatalf("want undriven OUTPUT diagnostic on zz, got:\n%s", circuitlint.Format(diags))
	}
	if len(circuitlint.Errors(diags)) != 2 {
		t.Fatalf("want exactly 2 error diagnostics, got:\n%s", circuitlint.Format(diags))
	}
}

func TestLintDupAndMultiDriven(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(b)
OUTPUT(y)
n1 = AND(a, b)
n1 = OR(a, b)
a = NOT(b)
y = NOT(n1)
`
	diags := circuitlint.LintText(src, "dup")
	if !hasCheck(diags, circuitlint.CheckDupName, "b") {
		t.Fatalf("want dupname on INPUT b, got:\n%s", circuitlint.Format(diags))
	}
	if !hasCheck(diags, circuitlint.CheckDupName, "n1") {
		t.Fatalf("want dupname on gate n1, got:\n%s", circuitlint.Format(diags))
	}
	if !hasCheck(diags, circuitlint.CheckMultiDriven, "a") {
		t.Fatalf("want multidriven on a (INPUT + gate), got:\n%s", circuitlint.Format(diags))
	}
}

func TestLintDangling(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y)
dead = OR(a, b)
y = AND(a, b)
`
	diags := circuitlint.LintText(src, "dangling")
	if !hasCheck(diags, circuitlint.CheckDangling, "dead") {
		t.Fatalf("want dangling on dead, got:\n%s", circuitlint.Format(diags))
	}
	// Dangling is a warning: it must not fail the design.
	if circuitlint.HasErrors(diags) {
		t.Fatalf("dangling alone must not be an error:\n%s", circuitlint.Format(diags))
	}
}

func TestLintSyntax(t *testing.T) {
	diags := circuitlint.LintText("what is this line", "syntax")
	if len(diags) != 1 || diags[0].Check != circuitlint.CheckSyntax {
		t.Fatalf("want single syntax diagnostic, got:\n%s", circuitlint.Format(diags))
	}
	if !circuitlint.HasErrors(diags) {
		t.Fatal("syntax must be error severity")
	}
}

// TestLintCollectsAll is the point of the package: one pass reports every
// problem where the strict parser stops at the first.
func TestLintCollectsAll(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(y)
OUTPUT(nowhere)
g1 = AND(a, g2)
g2 = NOT(g1)
u = OR(a, ghost)
y = NOT(a)
`
	diags := circuitlint.LintText(src, "multi")
	for _, want := range []struct{ check, gate string }{
		{circuitlint.CheckUndriven, "u"},       // ghost fanin
		{circuitlint.CheckUndriven, "nowhere"}, // undefined OUTPUT
		{circuitlint.CheckCycle, "g1"},         // g1 <-> g2
		{circuitlint.CheckDangling, "u"},       // u feeds nothing
	} {
		if !hasCheck(diags, want.check, want.gate) {
			t.Errorf("missing %s diagnostic for %q in:\n%s", want.check, want.gate, circuitlint.Format(diags))
		}
	}
}

// TestBenchmarksLintClean pins the contract that makes -lint safe to turn
// on by default: every built-in benchmark design passes with no errors
// (the known dead c432-family buffers surface as warnings only), both as
// a mapped design and after a .bench round trip.
func TestBenchmarksLintClean(t *testing.T) {
	for _, name := range repro.Benchmarks() {
		d, err := repro.Generate(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sd, _ := d.Internal()
		if diags := circuitlint.Errors(circuitlint.LintDesign(sd)); len(diags) != 0 {
			t.Errorf("%s: lint errors on built-in design:\n%s", name, circuitlint.Format(diags))
		}
		var sb strings.Builder
		if err := benchfmt.Write(&sb, sd.Circuit); err != nil {
			t.Fatalf("%s write: %v", name, err)
		}
		if diags := circuitlint.Errors(circuitlint.LintText(sb.String(), name)); len(diags) != 0 {
			t.Errorf("%s: lint errors after round trip:\n%s", name, circuitlint.Format(diags))
		}
	}
}

func TestLintDesignSizeIdx(t *testing.T) {
	d, err := repro.Generate("alu1")
	if err != nil {
		t.Fatal(err)
	}
	sd, _ := d.Internal()
	// Corrupt one gate's size index and one gate's mapping.
	var corrupted, unmapped string
	for i := range sd.Circuit.Gates {
		g := &sd.Circuit.Gates[i]
		if !g.Fn.IsLogic() {
			continue
		}
		if corrupted == "" {
			g.SizeIdx = 999
			corrupted = g.Name
			continue
		}
		g.CellRef = -1
		unmapped = g.Name
		break
	}
	diags := circuitlint.LintDesign(sd)
	if !hasCheck(diags, circuitlint.CheckSizeIdx, corrupted) {
		t.Errorf("want sizeidx on %q, got:\n%s", corrupted, circuitlint.Format(diags))
	}
	if !hasCheck(diags, circuitlint.CheckUnmapped, unmapped) {
		t.Errorf("want unmapped on %q, got:\n%s", unmapped, circuitlint.Format(diags))
	}
	if !circuitlint.HasErrors(diags) {
		t.Error("mapping corruption must be error severity")
	}
}
