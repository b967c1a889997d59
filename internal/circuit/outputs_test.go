package circuit_test

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/verilog"
)

// checkOutputIndex asserts IsOutput(id) == (id ∈ Outputs) for every gate,
// and that ids outside the circuit are never outputs.
func checkOutputIndex(t *testing.T, c *circuit.Circuit) {
	t.Helper()
	want := make(map[circuit.GateID]bool, len(c.Outputs))
	for _, o := range c.Outputs {
		want[o] = true
	}
	for i := range c.Gates {
		id := circuit.GateID(i)
		if got := c.IsOutput(id); got != want[id] {
			t.Fatalf("%s: IsOutput(%q) = %v, want %v", c.Name, c.Gates[i].Name, got, want[id])
		}
	}
	for _, id := range []circuit.GateID{circuit.None, circuit.GateID(c.NumGates())} {
		if c.IsOutput(id) {
			t.Fatalf("%s: IsOutput(%d) = true outside the circuit", c.Name, id)
		}
	}
}

func TestIsOutputZeroValueCircuit(t *testing.T) {
	var c circuit.Circuit
	a := c.MustAddGate("a", circuit.Input)
	n := c.MustAddGate("n", circuit.Not)
	c.MustConnect(a, n)
	checkOutputIndex(t, &c)
	c.MustMarkOutput(n)
	checkOutputIndex(t, &c)
	if err := c.MarkOutput(n); err == nil {
		t.Fatal("duplicate MarkOutput accepted")
	}
	if err := c.MarkOutput(circuit.GateID(c.NumGates())); err == nil {
		t.Fatal("out-of-range MarkOutput accepted")
	}
	if len(c.Outputs) != 1 {
		t.Fatalf("rejected MarkOutput calls changed Outputs to %v", c.Outputs)
	}
	checkOutputIndex(t, &c)
	// Gates added after outputs were marked start as non-outputs.
	m := c.MustAddGate("m", circuit.Buf)
	c.MustConnect(n, m)
	checkOutputIndex(t, &c)
}

func TestIsOutputCloneIndependent(t *testing.T) {
	c := gen.ALU("alu", 4)
	cp := c.Clone()
	checkOutputIndex(t, cp)
	var inner []circuit.GateID
	for i := range c.Gates {
		if id := circuit.GateID(i); c.Gates[i].Fn.IsLogic() && !c.IsOutput(id) {
			inner = append(inner, id)
		}
	}
	if len(inner) < 2 {
		t.Fatal("ALU has fewer than two internal gates")
	}
	cp.MustMarkOutput(inner[0])
	c.MustMarkOutput(inner[1])
	checkOutputIndex(t, c)
	checkOutputIndex(t, cp)
	if c.IsOutput(inner[0]) || cp.IsOutput(inner[1]) {
		t.Fatal("MarkOutput on one copy leaked into the other")
	}
}

// Every builder that reaches MarkOutput keeps the index in step, and a
// duplicate MarkOutput on its result is still rejected.
func TestIsOutputBuilders(t *testing.T) {
	roundTrip := func(t *testing.T, write func(io.Writer, *circuit.Circuit) error,
		parse func(io.Reader, string) (*circuit.Circuit, error)) *circuit.Circuit {
		t.Helper()
		var buf bytes.Buffer
		if err := write(&buf, gen.SEC("sec", 16, true)); err != nil {
			t.Fatal(err)
		}
		c, err := parse(&buf, "sec")
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cases := []struct {
		name  string
		build func(t *testing.T) *circuit.Circuit
	}{
		{"compose", func(*testing.T) *circuit.Circuit {
			return gen.Compose("mix", gen.SEC("sec", 16, true), gen.ALU("alu", 4))
		}},
		{"bench round trip", func(t *testing.T) *circuit.Circuit {
			return roundTrip(t, benchfmt.Write, benchfmt.Parse)
		}},
		{"verilog round trip", func(t *testing.T) *circuit.Circuit {
			return roundTrip(t, verilog.Write, verilog.Parse)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build(t)
			if len(c.Outputs) == 0 {
				t.Fatal("circuit has no outputs")
			}
			checkOutputIndex(t, c)
			n := len(c.Outputs)
			if err := c.MarkOutput(c.Outputs[n-1]); err == nil {
				t.Fatal("duplicate MarkOutput accepted")
			}
			if len(c.Outputs) != n {
				t.Fatal("duplicate MarkOutput changed Outputs")
			}
		})
	}
}
