package liberty

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cells"
	"repro/internal/ingest"
)

// valuesGroup matches one values(...) attribute and number one number
// inside it.
var (
	valuesGroup = regexp.MustCompile(`(?s)values \(.*?\);`)
	number      = regexp.MustCompile(`[0-9][0-9.e+-]*`)
)

// defaultText is the built-in library as Liberty text.
func defaultText(t *testing.T) string {
	t.Helper()
	var b bytes.Buffer
	if err := Write(&b, cells.Default90nm()); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// allValues replaces every number of every values table with v.
func allValues(src, v string) string {
	return valuesGroup.ReplaceAllStringFunc(src, func(g string) string {
		return number.ReplaceAllString(g, v)
	})
}

// firstValue replaces the first number of the first values table (the
// first cell's cell_rise delay table) with v.
func firstValue(src, v string) string {
	g := valuesGroup.FindStringIndex(src)
	n := number.FindStringIndex(src[g[0]:g[1]])
	return src[:g[0]+n[0]] + v + src[g[0]+n[1]:]
}

// TestParseRejectsNonPhysicalValues pins that numbers no process can
// produce are positioned semantic diagnostics, not a library that loads
// and then analyzes to garbage (an all-nan library used to analyze c432
// to mean 0, sigma 0).
func TestParseRejectsNonPhysicalValues(t *testing.T) {
	def := defaultText(t)
	smallestInv := cells.Default90nm().Cell(cells.INV, 0)
	mini := fuzzSeedLibrary
	for _, tc := range []struct {
		name, src, msg string
	}{
		{"all values nan", allValues(def, "nan"), "not a finite non-negative number"},
		{"one nan", firstValue(def, "nan"), "value NaN is not a finite"},
		{"negative delay", firstValue(def, "-1e9"), "value -1e+09 is not a finite"},
		{"negative area on the smallest INV", strings.Replace(def,
			"cell ("+smallestInv.Name+") {\n    area : ", "cell ("+smallestInv.Name+") {\n    area : -", 1),
			"area -"},
		{"negative capacitance", strings.Replace(mini, "capacitance : 2;", "capacitance : -2;", 1),
			"capacitance -2 is not a finite"},
		{"infinite index", strings.Replace(mini, `index_2 ("0, 100")`, `index_2 ("0, inf")`, 1),
			"index_2 entry +Inf is not a finite"},
		{"negative index", strings.Replace(mini, `index_1 ("0, 10")`, `index_1 ("-5, 10")`, 1),
			"index_1 entry -5 is not a finite"},
		{"descending index", strings.Replace(mini, `index_1 ("0, 10")`, `index_1 ("10, 0")`, 1),
			"index_1 not ascending"},
	} {
		_, err := Parse(strings.NewReader(tc.src))
		ie, ok := ingest.As(err)
		if !ok {
			t.Fatalf("%s: want *ingest.Error, got %v", tc.name, err)
		}
		d := ie.Diags[0]
		if d.Check != ingest.CheckSemantic || d.Line == 0 || d.Col == 0 {
			t.Fatalf("%s: first diagnostic is not a positioned semantic one: %+v", tc.name, d)
		}
		if !strings.Contains(d.Msg, tc.msg) {
			t.Fatalf("%s: diagnostic %q does not mention %q", tc.name, d.Msg, tc.msg)
		}
	}
}

// transitionGroup matches one rise_transition or fall_transition group.
var transitionGroup = regexp.MustCompile(`(?s)\s*(rise|fall)_transition \(.*?\}`)

// withoutTransitions drops every transition table from a library, which
// must then be rejected at its first cell.
func withoutTransitions(src string) string {
	return transitionGroup.ReplaceAllString(src, "")
}
