package liberty

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ingest"
)

// fuzzLimits keeps hostile inputs cheap: every budget is small enough
// that a pathological case can neither allocate much nor run long.
func fuzzLimits() ingest.Limits {
	return ingest.Limits{
		MaxBytes: 64 << 10, MaxTokens: 1 << 16, MaxIdent: 128,
		MaxDepth: 16, MaxGates: 256, MaxNets: 4096, MaxErrors: 8,
	}
}

const fuzzSeedLibrary = `library (mini) {
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
        cell_rise (t) { index_1 ("0, 10"); index_2 ("0, 100"); values ("10, 20", "30, 40"); }
        cell_fall (t) { index_1 ("0, 10"); index_2 ("0, 100"); values ("20, 30", "40, 50"); }
        rise_transition (t) { index_1 ("0, 10"); index_2 ("0, 100"); values ("1, 2", "3, 4"); }
        fall_transition (t) { index_1 ("0, 10"); index_2 ("0, 100"); values ("1, 2", "3, 4"); }
      }
    }
  }
}`

// FuzzLiberty asserts the hostile-input contract of the streaming
// Liberty parser: for arbitrary bytes it returns a typed error or a
// library, never panics, never reads past the byte budget, and any
// accepted library survives a Write -> Parse round trip (parse <=>
// strict-build agreement: what the parser accepts, the writer can
// re-emit and the parser accepts again with identical structure).
func FuzzLiberty(f *testing.F) {
	f.Add(fuzzSeedLibrary)
	f.Add(`library (l) { }`)
	f.Add(`cell (X) { }`)
	f.Add(`library (l) { cell (WEIRD) { area : 1; } }`)
	f.Add(`library (l) {`)
	f.Add(`@@@@`)
	f.Add(`library (l) { a : ; b { } cell (INV_X1) { } }`)
	f.Add(`library (d) { cell (INV_X1) { pin (A) { pin (B) { pin (C) { } } } } }`)
	f.Add("library (c) { /* unterminated\n")
	f.Add(`library (s) { key : "unterminated`)
	f.Add(mismatchedTables)
	// Non-physical numbers, in miniature: every table value nan, one nan,
	// and a negative area.
	f.Add(allValues(fuzzSeedLibrary, "nan"))
	f.Add(firstValue(fuzzSeedLibrary, "nan"))
	f.Add(strings.Replace(fuzzSeedLibrary, "area : 1;", "area : -1;", 1))
	// No transition tables: rejected at the cell.
	f.Add(`library(){cell(INV_X1){area:1;pin(){direction:input;capacitance:1;}pin(){direction:output;timing(){cell_fall(){index_1("0,1");index_2("0,1");values("0,0""0,0");}}}}}`)
	f.Add(withoutTransitions(fuzzSeedLibrary))
	f.Fuzz(func(t *testing.T, src string) {
		lim := fuzzLimits()
		lib, err := ParseOpts(strings.NewReader(src), lim)
		if err != nil {
			ie, ok := ingest.As(err)
			if !ok {
				t.Fatalf("untyped parse error: %v", err)
			}
			if len(ie.Diags) > lim.MaxErrors+1 {
				t.Fatalf("unbounded diagnostics: %d", len(ie.Diags))
			}
			return
		}
		var buf bytes.Buffer
		if werr := Write(&buf, lib); werr != nil {
			t.Fatalf("accepted library cannot be written: %v", werr)
		}
		again, rerr := Parse(&buf)
		if rerr != nil {
			t.Fatalf("round trip rejected: %v\nsrc:\n%s", rerr, src)
		}
		if len(again.Kinds()) != len(lib.Kinds()) {
			t.Fatalf("round trip changed kind count: %d != %d", len(again.Kinds()), len(lib.Kinds()))
		}
	})
}
