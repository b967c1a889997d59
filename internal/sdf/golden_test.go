package sdf

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/synth"
	"repro/internal/variation"
)

// TestWriteGoldenDigest freezes Write's exact output, the "%.3f" corner
// text included, on the ALU and parity-tree designs: the SHA-256 of the
// 3-sigma SDF of each must not move in a behaviour-preserving change.
func TestWriteGoldenDigest(t *testing.T) {
	lib := cells.Default90nm()
	vm := variation.Default(lib)
	for _, tc := range []struct {
		name string
		c    *circuit.Circuit
		want string
	}{
		{"alu4", gen.ALU("alu", 4), "bd7805b52b3c70bec9ba6f63c2915f080c2de5d3bd6267f6124d91226c881d13"},
		{"parity64", gen.ParityTree("p", 64), "3f98ba22335f54478a7b594f0fad317dd0f85d4a94b248ee7ac907627395a0b0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := synth.Map(tc.c, lib)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := Write(&buf, d, vm, 3); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("SDF digest %s, want %s (%d bytes)", got, tc.want, buf.Len())
			}
		})
	}
}
