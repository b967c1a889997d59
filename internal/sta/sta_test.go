package sta

import (
	"math"
	"testing"

	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/synth"
)

func mapped(t *testing.T, c *circuit.Circuit) *synth.Design {
	t.Helper()
	d, err := synth.Map(c, cells.Default90nm())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestChainDelayAccumulates(t *testing.T) {
	// A chain of 5 inverters: arrival at the end = sum of the 5 delays.
	c := circuit.New("chain")
	prev := c.MustAddGate("a", circuit.Input)
	for i := 0; i < 5; i++ {
		inv := c.MustAddGate("", circuit.Not)
		c.MustConnect(prev, inv)
		prev = inv
	}
	c.MustMarkOutput(prev)
	d := mapped(t, c)
	r := Analyze(d)
	sum := 0.0
	for i := range d.Circuit.Gates {
		sum += r.Delay[i]
	}
	// The primary input is a finite source: its arrival is R_pi * load.
	sum += d.Lib.PrimaryInputRes * d.Load(d.Circuit.MustLookup("a"))
	if math.Abs(r.MaxArrival-sum) > 1e-9 {
		t.Fatalf("MaxArrival = %g, sum of delays = %g", r.MaxArrival, sum)
	}
	if r.MaxArrival <= 0 {
		t.Fatal("non-positive circuit delay")
	}
}

func TestArrivalMonotoneAlongEdges(t *testing.T) {
	d := mapped(t, gen.ALU("alu", 6))
	r := Analyze(d)
	for i := range d.Circuit.Gates {
		g := &d.Circuit.Gates[i]
		for _, f := range g.Fanin {
			if r.Arrival[f] > r.Arrival[g.ID]+1e-9 {
				t.Fatalf("arrival decreases along edge %d -> %d", f, g.ID)
			}
		}
	}
}

func TestWorstPOIsMax(t *testing.T) {
	d := mapped(t, gen.Comparator("cmp", 6))
	r := Analyze(d)
	for _, po := range d.Circuit.Outputs {
		if r.Arrival[po] > r.MaxArrival+1e-12 {
			t.Fatal("a PO exceeds MaxArrival")
		}
	}
	if r.WorstPO == circuit.None {
		t.Fatal("WorstPO unset")
	}
}

func TestUpsizingLoadedDriverReducesDelay(t *testing.T) {
	// A driver with 8 fanouts: upsizing it cuts its R*C_load delay while
	// its own input is an ideal PI, so the circuit must get faster.
	// (Uniformly upsizing a whole path would NOT help: each gate's load
	// grows as much as its drive.)
	c := circuit.New("fanout")
	a := c.MustAddGate("a", circuit.Input)
	drv := c.MustAddGate("drv", circuit.Not)
	c.MustConnect(a, drv)
	for i := 0; i < 8; i++ {
		s := c.MustAddGate("", circuit.Not)
		c.MustConnect(drv, s)
		c.MustMarkOutput(s)
	}
	d := mapped(t, c)
	r0 := Analyze(d)
	d.Circuit.Gate(d.Circuit.MustLookup("drv")).SizeIdx = 5
	r1 := Analyze(d)
	if r1.MaxArrival >= r0.MaxArrival {
		t.Fatalf("upsizing loaded driver did not speed up: %g -> %g", r0.MaxArrival, r1.MaxArrival)
	}
}

func TestUpsizingFanoutSlowsDriver(t *testing.T) {
	// The key loading effect: making a sink bigger raises the driver's
	// load and hence its delay.
	c := circuit.New("ld")
	a := c.MustAddGate("a", circuit.Input)
	drv := c.MustAddGate("drv", circuit.Not)
	c.MustConnect(a, drv)
	snk := c.MustAddGate("snk", circuit.Not)
	c.MustConnect(drv, snk)
	c.MustMarkOutput(snk)
	d := mapped(t, c)
	r0 := Analyze(d)
	drvID := d.Circuit.MustLookup("drv")
	d0 := r0.Delay[drvID]
	d.Circuit.Gate(d.Circuit.MustLookup("snk")).SizeIdx = 6
	r1 := Analyze(d)
	if r1.Delay[drvID] <= d0 {
		t.Fatalf("driver delay did not grow with sink size: %g -> %g", d0, r1.Delay[drvID])
	}
}

func TestCriticalPathConnected(t *testing.T) {
	d := mapped(t, gen.SEC("sec", 16, true))
	r := Analyze(d)
	path := r.CriticalPath(d)
	if len(path) == 0 {
		t.Fatal("empty path")
	}
	// Consecutive path elements must be connected fanin -> fanout.
	for i := 1; i < len(path); i++ {
		found := false
		for _, f := range d.Circuit.Gate(path[i]).Fanin {
			if f == path[i-1] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("path break between %d and %d", path[i-1], path[i])
		}
	}
	// Last element is the worst PO.
	if path[len(path)-1] != r.WorstPO {
		t.Fatal("path does not end at worst PO")
	}
	// Path length is bounded by circuit depth.
	if len(path) > d.Circuit.Depth() {
		t.Fatalf("path longer than depth: %d > %d", len(path), d.Circuit.Depth())
	}
}

func TestDeepCircuitHasLargerDelay(t *testing.T) {
	shallow := mapped(t, gen.CarryLookaheadAdder("cla", 16))
	deep := mapped(t, gen.RippleCarryAdder("rca", 16))
	rs := Analyze(shallow)
	rd := Analyze(deep)
	if rd.MaxArrival <= rs.MaxArrival {
		t.Fatalf("ripple (%g ps) not slower than lookahead (%g ps)", rd.MaxArrival, rs.MaxArrival)
	}
}

var sinkResult *Result

// BenchmarkAnalyzeManyOutputs times one full STA pass over a ~15k-gate
// design with ~1.3k primary outputs. Every per-gate electrical query is
// O(fanout), so ns/gate stays flat as outputs grow; a per-gate scan of
// the output list would multiply it by the output count.
func BenchmarkAnalyzeManyOutputs(b *testing.B) {
	c := gen.Compose("many", gen.SEC("sec", 1024, true), gen.ALU("alu", 256))
	d, err := synth.Map(c, cells.Default90nm())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkResult = Analyze(d)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(d.Circuit.NumGates()), "ns/gate")
}
