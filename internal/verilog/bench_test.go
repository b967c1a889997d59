package verilog

import (
	"bytes"
	"testing"

	"repro/internal/gen"
)

// BenchmarkParseVerilog parses a seeded random netlist of about 25k
// gates through the governed lexer, the hot path of large-netlist
// ingestion.
func BenchmarkParseVerilog(b *testing.B) {
	var buf bytes.Buffer
	if err := Write(&buf, gen.RandomDAG("dag25k", 256, 25000, 128, 1)); err != nil {
		b.Fatal(err)
	}
	src := buf.Bytes()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(bytes.NewReader(src), "dag25k"); err != nil {
			b.Fatal(err)
		}
	}
}
