package montecarlo

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	randv2 "math/rand/v2"
	"testing"

	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/parallel"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/variation"
	"repro/internal/verilog"
)

// referenceSamples is the test-only Monte-Carlo reference: the per-gate
// walk over circuit.Gate structs in topological order, one freshly keyed
// PCG per trial, serial. SampleRange must match it bit for bit.
func referenceSamples(d *synth.Design, vm *variation.Model, seed int64, lo, hi int) []float64 {
	c := d.Circuit
	nominal := sta.Analyze(d)
	topo := c.MustTopoOrder()
	stream := parallel.NewSeedStream(seed)
	arrival := make([]float64, c.NumGates())
	samples := make([]float64, 0, hi-lo)
	for t := lo; t < hi; t++ {
		rng := randv2.New(randv2.NewPCG(stream.Uint64(2*t), stream.Uint64(2*t+1)))
		for _, id := range topo {
			g := c.Gate(id)
			if g.Fn == circuit.Input {
				arrival[id] = 0
				continue
			}
			worst := 0.0
			for _, f := range g.Fanin {
				if arrival[f] > worst {
					worst = arrival[f]
				}
			}
			mean := nominal.Delay[id]
			arrival[id] = worst + variation.SampleFrom(rng, mean, vm.Sigma(d.Cell(id), mean))
		}
		cd := math.Inf(-1)
		for _, po := range c.Outputs {
			if arrival[po] > cd {
				cd = arrival[po]
			}
		}
		if len(c.Outputs) == 0 {
			cd = 0
		}
		samples = append(samples, cd)
	}
	return samples
}

// sampleDigest is the SHA-256 of the samples' IEEE-754 bits, little
// endian, in trial order.
func sampleDigest(samples []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, s := range samples {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(s))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// withoutOutputs copies c gate for gate but marks no primary output, the
// degenerate case whose every sample is 0.
func withoutOutputs(c *circuit.Circuit) *circuit.Circuit {
	out := circuit.New(c.Name + "_noout")
	for i := range c.Gates {
		out.MustAddGate(c.Gates[i].Name, c.Gates[i].Fn)
	}
	for i := range c.Gates {
		for _, f := range c.Gates[i].Fanin {
			out.MustConnect(f, circuit.GateID(i))
		}
	}
	return out
}

// verilogRoundTrip writes c as structural Verilog and parses it back.
// The parser numbers inputs first and instances in file (topological)
// order, so the mapped design's gate IDs no longer follow its own
// topological order.
func verilogRoundTrip(t *testing.T, c *circuit.Circuit) *circuit.Circuit {
	t.Helper()
	var buf bytes.Buffer
	if err := verilog.Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	rt, err := verilog.Parse(&buf, c.Name)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestSampleRangePinned freezes the bits of SampleRange's samples on
// three designs, two trial windows each and Workers 1/2/4: a Verilog
// round trip whose topological order is not its gate-ID order, a
// composed design with many primary outputs, and c7552. Any change to
// the draw order, the max fold or the per-trial seeding moves a digest.
func TestSampleRangePinned(t *testing.T) {
	c7552, err := gen.ISCASLike("c7552")
	if err != nil {
		t.Fatal(err)
	}
	designs := []struct {
		name string
		c    *circuit.Circuit
		pins map[[2]int]string
	}{
		{"verilog-rt", verilogRoundTrip(t, gen.RandomDAG("rt", 48, 1500, 24, 7)), map[[2]int]string{
			{0, 200}:   "809afbd77cb3c6b6465120bfb6f40c291581e59ffe113ac56bc3b7c46d1d72de",
			{150, 390}: "4cb96d680688a4f452509ff42db069a1edc35df126e80c6cb15c31595eafb047",
		}},
		{"many-outputs", gen.Compose("many", gen.SEC("sec", 64, true), gen.ALU("alu", 16)), map[[2]int]string{
			{0, 200}:   "c63e7a4785d72585abb1d4d21bc92b745d4d783498265117710f3e8646be07af",
			{150, 390}: "084ccd8f1cd3d98a1ceb2feea4b92651bcf8f0f8dbd00e813d7bf23f3a9e5161",
		}},
		{"c7552", c7552, map[[2]int]string{
			{0, 200}:   "61cb9bfd3e9788e35da951a10e53879644045f4e91338e4a54fb908394f41738",
			{150, 390}: "16cc0d8ac1972025905b45f8dc83b091a3273764031f7d2c353e1f1a71880698",
		}},
	}
	for _, tc := range designs {
		d, vm := setup(t, tc.c)
		if tc.name == "verilog-rt" && isIdentity(d.Circuit.MustTopoOrder()) {
			t.Fatalf("%s: topological order equals gate-ID order; the design no longer tests the reordering", tc.name)
		}
		for win, want := range tc.pins {
			for _, w := range []int{1, 2, 4} {
				got, err := SampleRange(d, vm, Options{Seed: 2005, Workers: w}, win[0], win[1])
				if err != nil {
					t.Fatal(err)
				}
				if dg := sampleDigest(got); dg != want {
					t.Errorf("%s [%d,%d) workers=%d: digest %s, pinned %s", tc.name, win[0], win[1], w, dg, want)
				}
			}
		}
	}
}

func isIdentity(order []circuit.GateID) bool {
	for i, id := range order {
		if int(id) != i {
			return false
		}
	}
	return true
}

// TestSampleRangeMatchesReference compares SampleRange with the per-gate
// reference walk bit for bit on seeded random netlists, one of them
// without primary outputs.
func TestSampleRangeMatchesReference(t *testing.T) {
	lib := cells.Default90nm()
	vm := variation.Default(lib)
	var cs []*circuit.Circuit
	for seed := int64(1); seed <= 4; seed++ {
		cs = append(cs, gen.RandomDAG(fmt.Sprintf("dag%d", seed), 16+int(seed)*8, 200*int(seed), 8, seed))
	}
	cs = append(cs, withoutOutputs(gen.RandomDAG("dag5", 24, 300, 8, 5)))
	for _, c := range cs {
		d, err := synth.Map(c, lib)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceSamples(d, vm, 31, 40, 180)
		for _, w := range []int{1, 2} {
			got, err := SampleRange(d, vm, Options{Seed: 31, Workers: w}, 40, 180)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s workers=%d: sample %d is %v, reference %v", c.Name, w, i, got[i], want[i])
				}
			}
		}
		if len(c.Outputs) == 0 && want[0] != 0 {
			t.Fatalf("%s: a design without outputs sampled %v, want 0", c.Name, want[0])
		}
	}
}

// TestSampleRangeAllocsFlatInTrials pins that a trial allocates nothing:
// SampleRange's allocations (the nominal analysis, the flat view, the
// sample slice and one arrival buffer and generator per shard) are the
// same at 64 and 512 trials.
func TestSampleRangeAllocsFlatInTrials(t *testing.T) {
	d, vm := setup(t, gen.ALU("alu", 4))
	allocs := func(trials int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := SampleRange(d, vm, Options{Seed: 3, Workers: 1}, 0, trials); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a64, a512 := allocs(64), allocs(512); a64 != a512 {
		t.Fatalf("allocations grow with the trial count: %v at 64 trials, %v at 512", a64, a512)
	}
}
