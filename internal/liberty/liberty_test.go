package liberty

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/cells"
	"repro/internal/ingest"
)

func TestRoundTripDefaultLibrary(t *testing.T) {
	lib := cells.Default90nm()
	var buf bytes.Buffer
	if err := Write(&buf, lib); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != lib.Name {
		t.Errorf("name %q != %q", got.Name, lib.Name)
	}
	if got.PrimaryInputSlew != lib.PrimaryInputSlew ||
		got.PrimaryOutputLoad != lib.PrimaryOutputLoad ||
		got.PrimaryInputRes != lib.PrimaryInputRes {
		t.Error("library defaults lost")
	}
	for _, kind := range lib.Kinds() {
		if got.NumSizes(kind) != lib.NumSizes(kind) {
			t.Fatalf("%s: %d sizes, want %d", kind, got.NumSizes(kind), lib.NumSizes(kind))
		}
		for s := 0; s < lib.NumSizes(kind); s++ {
			a, b := lib.Cell(kind, s), got.Cell(kind, s)
			if a.Name != b.Name || math.Abs(a.Area-b.Area) > 1e-9 ||
				math.Abs(a.InputCap-b.InputCap) > 1e-9 || a.Drive != b.Drive {
				t.Fatalf("%s size %d: cell metadata changed: %+v vs %+v", kind, s, a, b)
			}
			// Delay and slew surfaces must be identical at probe points.
			for _, slew := range []float64{5, 30, 120} {
				for _, load := range []float64{2, 20, 80} {
					if d1, d2 := a.Delay.Lookup(slew, load), b.Delay.Lookup(slew, load); math.Abs(d1-d2) > 1e-9 {
						t.Fatalf("%s size %d: delay(%g,%g) %g != %g", kind, s, slew, load, d1, d2)
					}
					if s1, s2 := a.OutSlew.Lookup(slew, load), b.OutSlew.Lookup(slew, load); math.Abs(s1-s2) > 1e-9 {
						t.Fatalf("%s size %d: slew mismatch", kind, s)
					}
				}
			}
		}
	}
}

func TestWriteContainsLibertyLandmarks(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, cells.Default90nm()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"library (repro90)", "delay_model : table_lookup",
		"cell (NAND2_X1)", "function : \"!(A*B)\"",
		"cell_rise (delay_template)", "index_1", "values (",
		"pin (A)", "direction : input", "capacitance",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestKindOfCellName(t *testing.T) {
	cases := []struct {
		name string
		kind cells.Kind
		ok   bool
	}{
		{"NAND2_X4", cells.NAND2, true},
		{"INV_X1", cells.INV, true},
		{"XNOR2_X16", cells.XNOR2, true},
		{"FOO_X2", 0, false},
		{"NAND2", 0, false},
	}
	for _, tc := range cases {
		k, ok := KindOfCellName(tc.name)
		if ok != tc.ok || (ok && k != tc.kind) {
			t.Errorf("KindOfCellName(%q) = %v,%v", tc.name, k, ok)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"not a library", `cell (X) { }`},
		{"empty library", `library (l) { }`},
		{"bad cell name", `library (l) { cell (WEIRD) { area : 1; } }`},
		{"unterminated", `library (l) {`},
		{"garbage", `@@@@`},
	}
	for _, tc := range cases {
		if _, err := Parse(strings.NewReader(tc.src)); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestParseAveragesRiseFall(t *testing.T) {
	src := `library (mini) {
  default_input_transition : 20;
  default_output_load : 6;
  default_input_drive_resistance : 0.6;
  cell (INV_X1) {
    area : 1; drive_strength : 1;
    pin (A) { direction : input; capacitance : 2; }
    pin (Y) {
      direction : output;
      function : "!A";
      timing () {
        cell_rise (tmpl) { index_1 ("0, 10"); index_2 ("0, 100"); values ("10, 20", "30, 40"); }
        cell_fall (tmpl) { index_1 ("0, 10"); index_2 ("0, 100"); values ("20, 30", "40, 50"); }
        rise_transition (tmpl) { index_1 ("0, 10"); index_2 ("0, 100"); values ("1, 2", "3, 4"); }
        fall_transition (tmpl) { index_1 ("0, 10"); index_2 ("0, 100"); values ("1, 2", "3, 4"); }
      }
    }
  }
  cell (INV_X2) {
    area : 2; drive_strength : 2;
    pin (A) { direction : input; capacitance : 4; }
    pin (Y) {
      direction : output;
      function : "!A";
      timing () {
        cell_rise (tmpl) { index_1 ("0, 10"); index_2 ("0, 100"); values ("5, 10", "15, 20"); }
        cell_fall (tmpl) { index_1 ("0, 10"); index_2 ("0, 100"); values ("5, 10", "15, 20"); }
        rise_transition (tmpl) { index_1 ("0, 10"); index_2 ("0, 100"); values ("1, 2", "3, 4"); }
        fall_transition (tmpl) { index_1 ("0, 10"); index_2 ("0, 100"); values ("1, 2", "3, 4"); }
      }
    }
  }
}`
	lib, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	c := lib.Cell(cells.INV, 0)
	// rise (10) and fall (20) average to 15 at the (0,0) grid point.
	if got := c.Delay.Lookup(0, 0); math.Abs(got-15) > 1e-9 {
		t.Errorf("averaged delay = %g, want 15", got)
	}
	if lib.NumSizes(cells.INV) != 2 {
		t.Errorf("sizes = %d", lib.NumSizes(cells.INV))
	}
	// Sizes sorted by drive with SizeIdx reassigned.
	if lib.Cell(cells.INV, 1).Drive != 2 {
		t.Error("drive order wrong")
	}
}

// mismatchedTables is TestParseAveragesRiseFall's first cell with a 3x2
// cell_rise against a 2x2 cell_fall: the two cannot be averaged point
// by point.
const mismatchedTables = `library (mini) {
  cell (INV_X1) {
    area : 1; drive_strength : 1;
    pin (A) { direction : input; capacitance : 2; }
    pin (Y) {
      direction : output;
      timing () {
        cell_rise (tmpl) { index_1 ("0, 10, 20"); index_2 ("0, 100"); values ("10, 20", "30, 40", "50, 60"); }
        cell_fall (tmpl) { index_1 ("0, 10"); index_2 ("0, 100"); values ("20, 30", "40, 50"); }
        rise_transition (tmpl) { index_1 ("0, 10"); index_2 ("0, 100"); values ("1, 2", "3, 4"); }
        fall_transition (tmpl) { index_1 ("0, 10"); index_2 ("0, 100"); values ("1, 2", "3, 4"); }
      }
    }
  }
}`

// TestParseRejectsMismatchedRiseFall pins that rise/fall tables on
// different index grids are a positioned semantic diagnostic, not an
// index-out-of-range panic while averaging them.
func TestParseRejectsMismatchedRiseFall(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"shape", mismatchedTables},
		{"index values", strings.Replace(mismatchedTables,
			`index_1 ("0, 10, 20"); index_2 ("0, 100"); values ("10, 20", "30, 40", "50, 60");`,
			`index_1 ("0, 5"); index_2 ("0, 100"); values ("10, 20", "30, 40");`, 1)},
		{"transition", strings.Replace(mismatchedTables,
			`fall_transition (tmpl) { index_1 ("0, 10"); index_2 ("0, 100");`,
			`fall_transition (tmpl) { index_1 ("0, 10"); index_2 ("0, 50");`, 1)},
	} {
		_, err := Parse(strings.NewReader(tc.src))
		ie, ok := ingest.As(err)
		if !ok {
			t.Fatalf("%s: want *ingest.Error, got %v", tc.name, err)
		}
		if len(ie.Diags) != 1 {
			t.Fatalf("%s: want 1 diagnostic, got %v", tc.name, ie.Diags)
		}
		d := ie.Diags[0]
		if d.Check != ingest.CheckSemantic || d.Line < 9 || d.Line > 11 || d.Col == 0 {
			t.Fatalf("%s: diagnostic not a positioned semantic one at the table: %+v", tc.name, d)
		}
		if !strings.Contains(d.Msg, "index_1/index_2 differ") {
			t.Fatalf("%s: diagnostic message %q", tc.name, d.Msg)
		}
	}
}

func TestLexerHandlesCommentsAndContinuations(t *testing.T) {
	lim := ingest.Default()
	src := "a /* x\ny */ : 1; // trailing\nb \\\n: 2;"
	lx := newLexer(ingest.NewReader(strings.NewReader(src), lim), ingest.NewMeter(lim), lim)
	var idents []string
	for {
		tk, err := lx.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tk.Kind == tokEOF {
			break
		}
		if tk.Kind == tokIdent {
			idents = append(idents, tk.Text)
		}
	}
	if len(idents) != 4 || idents[0] != "a" || idents[2] != "b" {
		t.Fatalf("idents = %v", idents)
	}
}
