package repro

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/circuit"
)

// TestFullPipelineRoundTrip drives the complete flow: generate, export
// to .bench, reload, baseline, statistical optimization, area recovery,
// export to every sign-off format, reload the Verilog, and confirm the
// analyses agree where they must.
func TestFullPipelineRoundTrip(t *testing.T) {
	d0, err := Generate("c432")
	if err != nil {
		t.Fatal(err)
	}
	var bench bytes.Buffer
	if err := d0.SaveBench(&bench); err != nil {
		t.Fatal(err)
	}
	d, err := LoadBench(bytes.NewReader(bench.Bytes()), "c432")
	if err != nil {
		t.Fatal(err)
	}
	// Freshly mapped designs from the same netlist time identically.
	if a, b := d0.Analyze(), d.Analyze(); a.Mean != b.Mean {
		t.Fatalf("reload changed timing: %g vs %g", a.Mean, b.Mean)
	}
	if _, err := d.OptimizeMeanDelay(); err != nil {
		t.Fatal(err)
	}
	r, err := d.OptimizeStatistical(9)
	if err != nil {
		t.Fatal(err)
	}
	if r.DeltaSigmaPct() >= 0 {
		t.Fatalf("pipeline did not reduce sigma: %+v", r)
	}
	if _, err := d.Optimize(9, RunOptions{Optimizer: "recoverarea", SlackFrac: 0.01}); err != nil {
		t.Fatal(err)
	}
	// All exports succeed on the optimized design.
	for name, save := range map[string]func() error{
		"bench":   func() error { return d.SaveBench(&bytes.Buffer{}) },
		"verilog": func() error { return d.SaveVerilog(&bytes.Buffer{}) },
		"liberty": func() error { return d.SaveLiberty(&bytes.Buffer{}) },
		"sdf":     func() error { return d.SaveSDF(&bytes.Buffer{}, 3) },
		"dot":     func() error { return d.SaveDOT(&bytes.Buffer{}, 9) },
	} {
		if err := save(); err != nil {
			t.Fatalf("%s export: %v", name, err)
		}
	}
	// Verilog round trip preserves function-level structure.
	var v bytes.Buffer
	if err := d.SaveVerilog(&v); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&v, LoadSpec{Format: "verilog", Name: "c432"}); err != nil {
		t.Fatal(err)
	}
}

// TestDegenerateCircuits pushes pathological inputs through the whole
// facade: single-gate circuits, circuits with dangling gates, and a
// single-input identity.
func TestDegenerateCircuits(t *testing.T) {
	t.Run("single inverter", func(t *testing.T) {
		c := circuit.New("inv1")
		a := c.MustAddGate("a", circuit.Input)
		n := c.MustAddGate("n", circuit.Not)
		c.MustConnect(a, n)
		c.MustMarkOutput(n)
		d, err := FromCircuit(c)
		if err != nil {
			t.Fatal(err)
		}
		an := d.Analyze()
		if an.Mean <= 0 || an.Sigma <= 0 {
			t.Fatalf("degenerate analysis: %+v", an)
		}
		if _, err := d.OptimizeStatistical(3); err != nil {
			t.Fatal(err)
		}
		if paths := d.WorstPaths(3); len(paths) != 1 {
			t.Fatalf("single-path circuit enumerated %d paths", len(paths))
		}
	})
	t.Run("dangling gate", func(t *testing.T) {
		c := circuit.New("dangle")
		a := c.MustAddGate("a", circuit.Input)
		n := c.MustAddGate("n", circuit.Not)
		c.MustConnect(a, n)
		c.MustMarkOutput(n)
		// A second gate nobody reads.
		x := c.MustAddGate("x", circuit.Not)
		c.MustConnect(a, x)
		d, err := FromCircuit(c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.OptimizeMeanDelay(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("wide flat circuit", func(t *testing.T) {
		// 1-level, many outputs: stresses the PO-max machinery.
		c := circuit.New("flat")
		a := c.MustAddGate("a", circuit.Input)
		for i := 0; i < 40; i++ {
			n := c.MustAddGate("", circuit.Not)
			c.MustConnect(a, n)
			c.MustMarkOutput(n)
		}
		d, err := FromCircuit(c)
		if err != nil {
			t.Fatal(err)
		}
		an := d.Analyze()
		if an.Sigma <= 0 {
			t.Fatal("flat circuit lost its sigma")
		}
		if _, err := d.OptimizeStatistical(9); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMalformedInputsFailLoudly injects broken inputs at every loader.
func TestMalformedInputsFailLoudly(t *testing.T) {
	bad := []string{
		"",
		"INPUT(",
		"module",
		"OUTPUT(x)\n",
		strings.Repeat("a", 1<<16),
	}
	for _, src := range bad {
		if _, err := LoadBench(strings.NewReader(src), "x"); err == nil && src != "" {
			t.Errorf("LoadBench accepted %.20q", src)
		}
		if _, err := Load(strings.NewReader(src), LoadSpec{Format: "verilog", Name: "x"}); err == nil {
			t.Errorf("Load (verilog) accepted %.20q", src)
		}
		if _, err := LoadLiberty(strings.NewReader(src), IngestLimits{}); err == nil {
			t.Errorf("LoadLiberty accepted %.20q", src)
		}
	}
}

// TestEmptyBenchIsEmptyCircuitNotError documents the edge semantics: an
// empty .bench parses to an empty circuit (no gates, no outputs), which
// the mapper accepts and analysis treats as zero-delay.
func TestEmptyBenchIsEmptyCircuitNotError(t *testing.T) {
	d, err := LoadBench(strings.NewReader(""), "empty")
	if err != nil {
		t.Fatalf("empty bench rejected: %v", err)
	}
	a := d.Analyze()
	if a.Mean != 0 || a.NominalDelay != 0 {
		t.Fatalf("empty circuit has delay: %+v", a)
	}
}
