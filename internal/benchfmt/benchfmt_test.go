package benchfmt

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/circuit"
)

const c17 = `# c17 ISCAS-85 example
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
`

func TestParseC17(t *testing.T) {
	c, err := Parse(strings.NewReader(c17), "c17")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Inputs()); got != 5 {
		t.Errorf("inputs = %d, want 5", got)
	}
	if got := len(c.Outputs); got != 2 {
		t.Errorf("outputs = %d, want 2", got)
	}
	if got := c.NumLogicGates(); got != 6 {
		t.Errorf("gates = %d, want 6", got)
	}
	g := c.Gate(c.MustLookup("22"))
	if g.Fn != circuit.Nand || len(g.Fanin) != 2 {
		t.Errorf("gate 22 parsed wrong: %+v", g)
	}
	if c.Depth() != 3 {
		t.Errorf("depth = %d, want 3", c.Depth())
	}
}

func TestParseForwardReference(t *testing.T) {
	src := `INPUT(a)
OUTPUT(y)
y = NOT(x)
x = BUFF(a)
`
	c, err := Parse(strings.NewReader(src), "fwd")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumLogicGates() != 2 {
		t.Fatal("forward reference not resolved")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"undefined net", "INPUT(a)\nOUTPUT(y)\ny = NOT(zz)\n"},
		{"unknown fn", "INPUT(a)\ny = FROB(a)\n"},
		{"dff rejected", "INPUT(a)\ny = DFF(a)\n"},
		{"garbage line", "INPUT(a)\nthis is not bench\n"},
		{"empty fanin", "INPUT(a)\ny = AND(a, )\n"},
		{"dup gate", "INPUT(a)\nINPUT(a)\n"},
		{"undefined output", "INPUT(a)\nOUTPUT(q)\ny = NOT(a)\n"},
		{"empty input name", "INPUT()\n"},
		{"malformed def", "INPUT(a)\ny = NOT a\n"},
	}
	for _, tc := range cases {
		if _, err := Parse(strings.NewReader(tc.src), tc.name); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	src := "input(a)\noutput(y)\ny = nand(a, a)\n"
	// Note: self-repeated fanin is legal in .bench (NAND(a,a) == NOT(a)).
	c, err := Parse(strings.NewReader(src), "ci")
	if err != nil {
		t.Fatal(err)
	}
	if c.Gate(c.MustLookup("y")).Fn != circuit.Nand {
		t.Fatal("lowercase keywords not accepted")
	}
}

func TestRoundTrip(t *testing.T) {
	orig, err := Parse(strings.NewReader(c17), "c17")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	re, err := Parse(bytes.NewReader(buf.Bytes()), "c17")
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if re.NumLogicGates() != orig.NumLogicGates() ||
		len(re.Inputs()) != len(orig.Inputs()) ||
		len(re.Outputs) != len(orig.Outputs) {
		t.Fatal("round trip changed structure")
	}
	// Same fanin structure gate by gate (by name).
	for i := range orig.Gates {
		g := &orig.Gates[i]
		id, ok := re.Lookup(g.Name)
		if !ok {
			t.Fatalf("gate %q lost in round trip", g.Name)
		}
		h := re.Gate(id)
		if h.Fn != g.Fn || len(h.Fanin) != len(g.Fanin) {
			t.Fatalf("gate %q changed: %v vs %v", g.Name, h, g)
		}
		for j := range g.Fanin {
			if re.Gate(h.Fanin[j]).Name != orig.Gate(g.Fanin[j]).Name {
				t.Fatalf("gate %q fanin %d changed", g.Name, j)
			}
		}
	}
}

func TestWriteRejectsConstants(t *testing.T) {
	c := circuit.New("k")
	k := c.MustAddGate("k0", circuit.Const0)
	b := c.MustAddGate("b", circuit.Buf)
	c.MustConnect(k, b)
	c.MustMarkOutput(b)
	var buf bytes.Buffer
	if err := Write(&buf, c); err == nil {
		t.Fatal("expected constant-not-representable error")
	}
}
