package ingest

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// oracleScanClass is the lexer's per-byte case selection as it was
// before the byte-class table, frozen: whitespace or Skip, then '/',
// then '"', then Puncts, else an identifier byte.
func oracleScanClass(spec LexSpec, b byte) byteClass {
	switch {
	case b == ' ' || b == '\t' || b == '\r' || b == '\n' ||
		strings.IndexByte(spec.Skip, b) >= 0:
		return classSpace
	case b == '/':
		return classComment
	case b == '"':
		return classString
	case strings.IndexByte(spec.Puncts, b) >= 0:
		return classPunct
	}
	return classIdent
}

// oracleIdentStop is the lexer's identifier terminator as it was before
// the byte-class table, frozen.
func oracleIdentStop(spec LexSpec, b byte) bool {
	return b == ' ' || b == '\t' || b == '\r' || b == '\n' || b == '"' || b == '/' ||
		strings.IndexByte(spec.Puncts, b) >= 0 || strings.IndexByte(spec.Skip, b) >= 0
}

// TestByteClassesMatchOracle checks every byte 0-255 under the Verilog
// and Liberty specs (copied in oracle_test.go from internal/verilog and
// internal/liberty), a parens-only spec, specs whose sets overlap, and
// seeded random specs.
func TestByteClassesMatchOracle(t *testing.T) {
	specs := map[string]LexSpec{
		"verilog": verilogSpec,
		"liberty": libertySpec,
		"parens":  {Puncts: "()"},
		"empty":   {},
		// Every overlap the case order decides: Skip over Puncts,
		// whitespace over Puncts, '/' and '"' over Puncts, NUL and 0xff.
		"overlap": {Puncts: "/\"; \t\x00\xff(", Skip: ";(\n\xff"},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		var p, s []byte
		for j := rng.Intn(12); j > 0; j-- {
			p = append(p, byte(rng.Intn(256)))
		}
		for j := rng.Intn(6); j > 0; j-- {
			s = append(s, byte(rng.Intn(256)))
		}
		specs[fmt.Sprintf("random%d", i)] = LexSpec{Puncts: string(p), Skip: string(s)}
	}
	for name, spec := range specs {
		lx := NewLexer(nil, nil, Limits{}, spec)
		for v := 0; v < 256; v++ {
			b := byte(v)
			if got, want := lx.class[b], oracleScanClass(spec, b); got != want {
				t.Errorf("%s: byte %#02x: class %d, want %d", name, b, got, want)
			}
			if got, want := lx.class[b] != classIdent, oracleIdentStop(spec, b); got != want {
				t.Errorf("%s: byte %#02x: ends identifier %v, want %v", name, b, got, want)
			}
		}
	}
}
