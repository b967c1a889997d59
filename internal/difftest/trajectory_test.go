package difftest

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/synth"
	"repro/internal/variation"
)

// pinnedTrajectories are frozen fingerprints of every backend's run on
// four Table-1 circuits (λ 9, MaxIters 8): statgreedy, recoverarea and
// sensitivity start from the mean-delay-sized original design,
// meandelay from the freshly mapped one. Each equivalence test elsewhere
// compares two runs of the same loop code; this table compares against
// recorded answers, so a change to the shared outer loop that moves any
// size, history entry, final snapshot, stop reason or work counter
// fails here. Re-pin only for a deliberate behaviour change.
var pinnedTrajectories = []struct {
	circuit, backend, stop string
	fp                     uint64
}{
	{"alu2", "meandelay", "converged", 0x206269ad039ce24e},
	{"alu2", "recoverarea", "converged", 0xb627ce9f0986cb30},
	{"alu2", "sensitivity", "max-iters", 0x9d15e8cd3035e98a},
	{"alu2", "statgreedy", "max-iters", 0x60ad4c48fcffcf7},
	{"c432", "meandelay", "max-iters", 0x55c2476756785ce6},
	{"c432", "recoverarea", "converged", 0x1273cb71288e777e},
	{"c432", "sensitivity", "max-iters", 0xa5e19fb0817792a8},
	{"c432", "statgreedy", "max-iters", 0x98af82123b8159c1},
	{"c499", "meandelay", "max-iters", 0x291ed2820e6fbe32},
	{"c499", "recoverarea", "converged", 0x2c8b67ff1f97f26},
	{"c499", "sensitivity", "max-iters", 0x601052e262fee5c},
	{"c499", "statgreedy", "max-iters", 0x85bf3791287e3bd4},
	{"c880", "meandelay", "converged", 0x4b7b05cf68500960},
	{"c880", "recoverarea", "converged", 0x39414a3474d4f845},
	{"c880", "sensitivity", "max-iters", 0xefa52e9f0046dc14},
	{"c880", "statgreedy", "max-iters", 0x72145576a693a919},
}

// trajectoryFingerprint is an FNV-64a hash of the deterministic outcome
// of a run: the final sizing, every History entry's cost bits, resize
// count and move, the Final snapshot's bits, the iteration count, the
// stop reason and the Evals/NodeEvals work counters.
func trajectoryFingerprint(sizes []int, r *core.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	s := func(v string) {
		u(uint64(len(v)))
		h.Write([]byte(v))
	}
	u(uint64(len(sizes)))
	for _, v := range sizes {
		u(uint64(v))
	}
	u(uint64(len(r.History)))
	for _, it := range r.History {
		u(math.Float64bits(it.Cost))
		u(uint64(it.Resized))
		s(it.Move)
	}
	for _, f := range []float64{r.Final.Mean, r.Final.Sigma, r.Final.Cost, r.Final.Area} {
		u(math.Float64bits(f))
	}
	u(uint64(r.Iterations))
	s(r.StoppedBy)
	u(uint64(r.Evals))
	u(uint64(r.NodeEvals))
	return h.Sum64()
}

// TestOptimizerTrajectoryPinned replays every pinned run and demands
// its recorded fingerprint and stop reason. The table must exercise
// both the converged and the max-iters stop.
func TestOptimizerTrajectoryPinned(t *testing.T) {
	stops := map[string]bool{}
	for _, p := range pinnedTrajectories {
		stops[p.stop] = true
	}
	if !stops["converged"] || !stops["max-iters"] {
		t.Fatalf("pinned runs reach stops %v; need both converged and max-iters", stops)
	}
	type start struct {
		mapped, original *synth.Design
		vm               *variation.Model
	}
	starts := map[string]start{}
	for _, p := range pinnedTrajectories {
		if _, ok := starts[p.circuit]; ok {
			continue
		}
		d, vm, err := experiments.NewDesign(p.circuit)
		if err != nil {
			t.Fatalf("NewDesign(%s): %v", p.circuit, err)
		}
		orig, _ := originalDesign(t, p.circuit)
		starts[p.circuit] = start{mapped: d, original: orig, vm: vm}
	}
	for _, p := range pinnedTrajectories {
		p := p
		st := starts[p.circuit]
		base := st.original
		if p.backend == "meandelay" {
			base = st.mapped
		}
		d := cloneDesign(base)
		t.Run(p.circuit+"/"+p.backend, func(t *testing.T) {
			t.Parallel()
			o, ok := core.LookupOptimizer(p.backend)
			if !ok {
				t.Fatalf("%s not registered", p.backend)
			}
			res, err := o.Run(d, st.vm, core.Options{Lambda: 9, MaxIters: 8, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.StoppedBy != p.stop {
				t.Errorf("stopped by %q, pinned %q", res.StoppedBy, p.stop)
			}
			if got := trajectoryFingerprint(d.Circuit.SizeSnapshot(), res); got != p.fp {
				t.Errorf("fingerprint %#x, pinned %#x", got, p.fp)
			}
		})
	}
}
