package sdf

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cells"
	"repro/internal/gen"
	"repro/internal/synth"
	"repro/internal/variation"
)

func setup(t *testing.T) (*synth.Design, *variation.Model) {
	t.Helper()
	lib := cells.Default90nm()
	d, err := synth.Map(gen.ALU("alu", 4), lib)
	if err != nil {
		t.Fatal(err)
	}
	return d, variation.Default(lib)
}

func TestWriteStructure(t *testing.T) {
	d, vm := setup(t)
	var buf bytes.Buffer
	if err := Write(&buf, d, vm, 3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"(DELAYFILE", "(SDFVERSION \"3.0\")", "(TIMESCALE 1ps)", "(IOPATH A Y ", "(CELLTYPE \""} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
	// One CELL per logic gate.
	if got := strings.Count(out, "(CELL\n"); got != d.Circuit.NumLogicGates() {
		t.Errorf("CELL count %d, want %d", got, d.Circuit.NumLogicGates())
	}
	// Balanced parens overall.
	if strings.Count(out, "(") != strings.Count(out, ")") {
		t.Error("unbalanced parentheses")
	}
}

// iopathTriple extracts the first (min:typ:max) triple of an IOPATH line.
func iopathTriple(t *testing.T, line string) (lo, typ, hi float64) {
	t.Helper()
	rest := line[len("(IOPATH"):]
	tripleStart := strings.Index(rest, "(")
	tripleEnd := strings.Index(rest, ")")
	if tripleStart < 0 || tripleEnd < tripleStart {
		t.Fatalf("malformed IOPATH line %q", line)
	}
	parts := strings.Split(rest[tripleStart+1:tripleEnd], ":")
	if len(parts) != 3 {
		t.Fatalf("triple has %d parts in %q", len(parts), line)
	}
	vals := make([]float64, 3)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			t.Fatalf("bad number %q in %q: %v", p, line, err)
		}
		vals[i] = v
	}
	return vals[0], vals[1], vals[2]
}

func TestTriplesOrderedAndNonNegative(t *testing.T) {
	d, vm := setup(t)
	var buf bytes.Buffer
	if err := Write(&buf, d, vm, 3); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	checked := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "(IOPATH") {
			continue
		}
		lo, typ, hi := iopathTriple(t, line)
		if !(lo <= typ && typ <= hi) {
			t.Fatalf("triple not ordered: %g:%g:%g", lo, typ, hi)
		}
		if lo < 0 {
			t.Fatalf("negative min corner %g", lo)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no IOPATH lines checked")
	}
}

func TestZeroSigmaCollapsesTriples(t *testing.T) {
	d, vm := setup(t)
	var buf bytes.Buffer
	if err := Write(&buf, d, vm, 0); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "(IOPATH") {
			continue
		}
		lo, typ, hi := iopathTriple(t, line)
		if lo != typ || typ != hi {
			t.Fatalf("k=0 triple not collapsed: %g:%g:%g", lo, typ, hi)
		}
	}
}

func TestWriteRejectsNegativeK(t *testing.T) {
	d, vm := setup(t)
	if err := Write(&bytes.Buffer{}, d, vm, -1); err == nil {
		t.Fatal("negative k accepted")
	}
}
