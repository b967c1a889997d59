package verilog

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/ingest"
)

// circuitDigest is the SHA-256 of a canonical dump of c: its name, every
// gate in ID order with its function, fanin names and fanout names, and
// the primary outputs in order.
func circuitDigest(c *circuit.Circuit) string {
	h := sha256.New()
	fmt.Fprintf(h, "circuit %q %d\n", c.Name, len(c.Gates))
	for i := range c.Gates {
		g := &c.Gates[i]
		fmt.Fprintf(h, "%q %s <-", g.Name, g.Fn)
		for _, f := range g.Fanin {
			fmt.Fprintf(h, " %q", c.Gates[f].Name)
		}
		io.WriteString(h, " ->")
		for _, f := range g.Fanout {
			fmt.Fprintf(h, " %q", c.Gates[f].Name)
		}
		io.WriteString(h, "\n")
	}
	for _, o := range c.Outputs {
		fmt.Fprintf(h, "out %q\n", c.Gates[o].Name)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// chunkReader serves its text in reads of 1 to 7 bytes, cycling, so
// every token boundary lands at some read boundary.
type chunkReader struct {
	s string
	k int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.s) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(r.s), 1+r.k%7)
	r.k++
	copy(p, r.s[:n])
	r.s = r.s[n:]
	return n, nil
}

// writeText renders c as Verilog.
func writeText(t *testing.T, c *circuit.Circuit) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// straddleText is a hand-written-style module of about 330 KB: CRLF line
// endings, // and /* */ comments, names with '$', '.' and brackets, and
// at the first five 64 KiB boundaries of the text one construct that
// crosses it: an identifier, a CRLF pair, a block comment, a primitive
// keyword and a line comment.
func straddleText() string {
	const window = 64 << 10
	var b strings.Builder
	b.WriteString("// hand-written module, CRLF line endings\r\n")
	b.WriteString("module straddle (a, b$1, c.q, y0, y1, y2);\r\n")
	b.WriteString("  input a, b$1, c.q; /* three inputs */\r\n")
	b.WriteString("  output y0, y1,\r\n    y2;\r\n")
	// padTo fills the text up to offset off with one block comment.
	padTo := func(off int) {
		n := off - b.Len()
		if n < 4 {
			panic("straddleText: padding too short")
		}
		b.WriteString("/*" + strings.Repeat(" ", n-4) + "*/")
	}
	prev := []string{"a", "b$1", "c.q"}
	prims := []string{"and", "nand", "or", "nor", "xor", "xnor"}
	stmt := func(i int) string {
		name := fmt.Sprintf("net[%d]_%s", i, strings.Repeat("x", i%17))
		prim := prims[i%len(prims)]
		s := fmt.Sprintf("  %s g%d (%s, %s, %s);", prim, i, name, prev[len(prev)-1], prev[len(prev)-1-i%3])
		if i%5 == 0 {
			s += " // gate " + name
		}
		prev = append(prev, name)
		return s + "\r\n"
	}
	boundary := 1
	for i := 0; b.Len() < 5*window+2000; i++ {
		next := boundary * window
		if boundary <= 5 && b.Len()+400 > next {
			s := stmt(i)
			open := strings.Index(s, "(") + 1 // offset of the output name
			switch boundary {
			case 1: // the output name crosses the boundary
				padTo(next - 3 - open)
				b.WriteString(s)
			case 2: // "\r" ends one window, "\n" starts the next
				padTo(next - len(s) + 1)
				b.WriteString(s)
			case 3: // a block comment with '*' and '/' inside crosses it
				padTo(next - 150)
				b.WriteString("/* ** / * /" + strings.Repeat("*-/", 100) + " **/\r\n")
				b.WriteString(s)
			case 4: // the primitive keyword crosses it
				padTo(next - 3)
				b.WriteString(s)
			case 5: // a line comment crosses it
				padTo(next - 10)
				b.WriteString("// a line comment across the window edge\r\n")
				b.WriteString(s)
			}
			boundary++
			continue
		}
		b.WriteString(stmt(i))
	}
	for i, o := range []string{"y0", "y1", "y2"} {
		fmt.Fprintf(&b, "  buf t%d (%s, %s);\r\n", i, o, prev[len(prev)-1-i])
	}
	b.WriteString("endmodule\r\n")
	return b.String()
}

// TestParseGoldenDigests pins the circuit Parse builds, through the
// canonical dump of circuitDigest, for a ~5k-gate composed ladder, the
// alu2 and c432 stand-ins and the hand-written straddleText module, both
// from one whole-buffer reader and from a reader that serves 1-7 bytes
// per Read.
func TestParseGoldenDigests(t *testing.T) {
	alu2, err := gen.ISCASLike("alu2")
	if err != nil {
		t.Fatal(err)
	}
	c432, err := gen.ISCASLike("c432")
	if err != nil {
		t.Fatal(err)
	}
	ladder := gen.Compose("ladder",
		gen.ALU("alu", 10),
		gen.SEC("sec", 24, true),
		gen.CarryLookaheadAdder("cla", 24),
		gen.RandomDAG("dag", 64, 2500, 32, 7),
		gen.ParityTree("par", 300),
		gen.ArrayMultiplier("mul", 8, false),
	)
	cases := []struct {
		name, text, want string
	}{
		{"ladder", writeText(t, ladder), "32a42473f08a6b469b5a8a6a3e3845d6c4032c728d70a696542d15f6b248b088"},
		{"alu2", writeText(t, alu2), "092c05f3789d9680b38f0b1adb898857e49555bb0a1a590cb6ef6b8b710d3e9b"},
		{"c432", writeText(t, c432), "dcb7de1db0944e38db9bcb2f66987d0fcef52907d28778aee64b7f0e69832c8c"},
		{"straddle", straddleText(), "9cbca00e2798ecc26c73b264635a349e5afdaf2a84747ab9410d25ce9bc30739"},
	}
	for _, tc := range cases {
		for _, rd := range []struct {
			name string
			r    io.Reader
		}{
			{"whole", strings.NewReader(tc.text)},
			{"chunked", &chunkReader{s: tc.text}},
		} {
			c, err := Parse(rd.r, tc.name)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, rd.name, err)
			}
			if got := circuitDigest(c); got != tc.want {
				t.Errorf("%s/%s: %d gates, %d bytes: digest %s, want %s",
					tc.name, rd.name, c.NumGates(), len(tc.text), got, tc.want)
			}
		}
	}
}

// diagLines renders every diagnostic of err, one per line.
func diagLines(err error) string {
	ie, ok := ingest.As(err)
	if !ok {
		return fmt.Sprintf("untyped: %v", err)
	}
	var b strings.Builder
	for _, d := range ie.Diags {
		fmt.Fprintf(&b, "%s|%s|%s|%d|%d|%s\n", d.Check, d.Severity, d.Gate, d.Line, d.Col, d.Msg)
	}
	return b.String()
}

// TestParseDiagnosticsPinned pins the full diagnostic list (check,
// severity, gate, line, column, message) of every malformed and budget
// case of the recovery and governance tests, and of a straddleText
// module damaged after its first window.
func TestParseDiagnosticsPinned(t *testing.T) {
	gateBudget := func() string {
		var b strings.Builder
		b.WriteString("module m (a);\n  input a;\n")
		for i := 0; i < 100; i++ {
			b.WriteString("  not g (w, a);\n")
		}
		b.WriteString("endmodule\n")
		return b.String()
	}()
	straddle := straddleText()
	damaged := strings.Replace(straddle, "net[1600]_", "net[1600]#", 1)
	damaged = strings.Replace(damaged, "  nand g2005", "  nandx g2005", 1)
	cases := []struct {
		name string
		r    func() []io.Reader
		lim  ingest.Limits
		want string
	}{
		{"not a module", text("wire x;\n"), ingest.Limits{},
			"semantic|error||1|1|expected module, got \"wire\"\n"},
		{"missing module name", text("module (a);\nendmodule\n"), ingest.Limits{},
			"syntax|error||1|8|expected module name, got \"(\"\n"},
		{"missing port list", text("module m ;\nendmodule\n"), ingest.Limits{},
			"syntax|error||1|10|expected \"(\", got \";\"\n"},
		{"punct in port list", text("module m (a; b);\nendmodule\n"), ingest.Limits{},
			"syntax|error||1|12|unexpected \";\" in name list\n"},
		{"stray punct statement", text("module m (a);\n input a;\n );\nendmodule\n"), ingest.Limits{},
			"syntax|error||3|2|unexpected \")\"\n"},
		{"missing instance name", text("module m (a, y);\n input a;\n output y;\n not (y, a);\nendmodule\n"), ingest.Limits{},
			"syntax|error||4|6|primitive \"not\" missing instance name\nsemantic|error|y|0|0|output \"y\" undriven\n"},
		{"too few terminals", text("module m (a, y);\n input a;\n output y;\n not g0 (y);\n buf g1 (y, a);\nendmodule\n"), ingest.Limits{},
			"semantic|error||4|2|primitive \"not\" with 1 terminals\n"},
		{"duplicate input", text("module m (a, y);\n input a;\n input a;\n output y;\n buf g0 (y, a);\nendmodule\n"), ingest.Limits{},
			"semantic|error|a|3|2|circuit \"m\": duplicate gate name \"a\"\n"},
		{"undriven output", text("module m (a, y);\n input a;\n output y;\nendmodule\n"), ingest.Limits{},
			"semantic|error|y|0|0|output \"y\" undriven\n"},
		{"missing endmodule", text("module m (a);\n input a;\n"), ingest.Limits{},
			"semantic|error||3|1|missing endmodule\n"},
		{"lone slash", text("module m (a);\n input a;\n / x;\n input /\n"), ingest.Limits{},
			"syntax|error||3|4|unexpected \"/ \"\nsyntax|error||5|1|unexpected \"/\\n\"\nsemantic|error||5|1|missing endmodule\n"},
		{"string statement", text("module m (a);\n input a;\n \"s\" ;\n output \"y;\n"), ingest.Limits{},
			"syntax|error||3|2|unexpected \"s\"\nsyntax|error||4|9|unexpected \"y;\\n\" in name list\nsemantic|error||5|1|missing endmodule\n"},
		{"wire dedup and recovery", text(`module m (a, b, y);
  input a, b;
  output y;
  wire w, w, w;
  bogus_prim g0 (w, a);
  and g1 (w, a, b);
  buf g2 (y, w);
endmodule
`), ingest.Limits{},
			"syntax|error||5|3|unsupported construct \"bogus_prim\"\n"},
		{"net budget", text("module m (a, b, c, d, e, f, g, h);\n input a, b, c, d, e, f, g, h;\nendmodule\n"),
			ingest.Limits{MaxNets: 4},
			"budget|error||1|24|netlist references more than 4 nets: ingest: budget exceeded\n"},
		{"byte budget", func() []io.Reader {
			return []io.Reader{&synthText{header: "module huge (a);\n  input a;\n", filler: "  wire w;\n", total: 100 << 20}}
		}, ingest.Limits{MaxBytes: 1 << 20},
			"budget|error||104857|9|input exceeds the 1048576-byte budget: ingest: budget exceeded\n"},
		{"gate budget", text(gateBudget), ingest.Limits{MaxGates: 10},
			"budget|error||12|16|netlist declares more than 10 gates: ingest: budget exceeded\n"},
		{"multiple defects", text(`module m (a, y);
  input a;
  output y;
  wire ghost;
  always @(posedge clk) q <= d;
  not g0 (y, a);
  and g1 (w, a, nothere);
endmodule
`), ingest.Limits{},
			"syntax|error||5|3|unsupported construct \"always\"\nsemantic|error|nothere|7|3|net \"nothere\" driven by nothing\nsemantic|error|ghost|0|0|wire \"ghost\" declared but never driven\n"},
		{"straddle damaged", text(damaged), ingest.Limits{},
			"syntax|error||2011|3|unsupported construct \"nandx\"\nsemantic|error|net[1600]_xx|1607|3|net \"net[1600]_xx\" driven by nothing\nsemantic|error|net[2005]_xxxxxxxxxxxxxxxx|2012|3|net \"net[2005]_xxxxxxxxxxxxxxxx\" driven by nothing\n"},
		{"straddle byte budget", text(straddle), ingest.Limits{MaxBytes: 3*(64<<10) + 5},
			"budget|error||2491|397|input exceeds the 196613-byte budget: ingest: budget exceeded\n"},
		{"straddle token budget", text(straddle), ingest.Limits{MaxTokens: 20000},
			"budget|error||2504|16|input exceeds the 20000-token budget: ingest: budget exceeded\n"},
		{"straddle ident budget", text(straddle), ingest.Limits{MaxIdent: 20},
			"budget|error||19|13|identifier exceeds the 20-byte budget: ingest: budget exceeded\n"},
	}
	for _, tc := range cases {
		for i, r := range tc.r() {
			_, err := ParseOpts(r, "m", tc.lim)
			if got := diagLines(err); got != tc.want {
				t.Errorf("%s (reader %d): diagnostics\n%s\nwant\n%s", tc.name, i, got, tc.want)
			}
		}
	}
}

// text returns a constructor of two fresh readers over s: one whole,
// one serving 1-7 bytes per Read.
func text(s string) func() []io.Reader {
	return func() []io.Reader { return []io.Reader{strings.NewReader(s), &chunkReader{s: s}} }
}
