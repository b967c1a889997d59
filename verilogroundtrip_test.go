package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// analysisBits is the SHA-256 of an Analysis's float bits: Mean, Sigma
// and the circuit-delay PDF.
func analysisBits(a *Analysis) string {
	h := sha256.New()
	put := func(vs ...float64) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	}
	put(a.Mean, a.Sigma)
	put(a.PDFX...)
	put(a.PDFY...)
	return hex.EncodeToString(h.Sum(nil))
}

// TestSaveVerilogLoadBitIdentical pins the Verilog round trip through
// the facade: SaveVerilog → Load of a generated design analyzes to
// frozen float bits, and a second round trip (Write of a parsed netlist
// is a fixed point) to the same bits again.
func TestSaveVerilogLoadBitIdentical(t *testing.T) {
	roundTrip := func(d *Design) *Design {
		t.Helper()
		var buf bytes.Buffer
		if err := d.SaveVerilog(&buf); err != nil {
			t.Fatal(err)
		}
		d2, err := Load(&buf, LoadSpec{Format: "verilog", Name: "rt"})
		if err != nil {
			t.Fatal(err)
		}
		return d2
	}
	for _, tc := range []struct{ name, want string }{
		{"alu2", "2e6e802e60e4020d709e52869b2edba3f61ff715bcbf4ffd281f78605bee77d1"},
		{"c432", "6b2676acf94a1b4eb50c4ca784e0bd3e2c976b2e3236a187532d3e6ee58d6bbe"},
	} {
		d, err := Generate(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		once := roundTrip(d)
		got := analysisBits(once.Analyze())
		if got != tc.want {
			t.Errorf("%s: Save → Load analysis bits %s, want %s", tc.name, got, tc.want)
		}
		if again := analysisBits(roundTrip(once).Analyze()); again != got {
			t.Errorf("%s: second round trip analysis bits %s, want %s", tc.name, again, got)
		}
	}
}
