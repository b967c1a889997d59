package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro"
	"repro/client"
	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/ssta"
	"repro/internal/synth"
)

// Seeded input generation. Every input a workload runs on is a pure
// function of (-seed, scale): the same seed gives identical designs and
// request sequences. Seeds permute and jitter the inputs without
// changing how much work they hold (block widths move by a few percent,
// never the block mix), so runs on different seeds measure the same
// amount of work on different inputs.

// scale sizes every workload. fullScale is what the benchmark measures;
// tinyScale runs the same code on alu2-sized inputs for the tests.
type scale struct {
	ladderGates int    // signoff: logic gates composed before mapping
	blockScale  int    // signoff: block widths are nominal*blockScale/100
	mcTrials    int    // signoff: Monte-Carlo trials per rep
	sizing      [3]int // sizing: SEC data bits, ALU width, CLA width
	sizingIters int    // sizing: StatisticalGreedy iteration cap
	table1      []string
	sensitivity []string // table1: circuits the sensitivity backend runs on
	sensIters   int      // table1: sensitivity iteration cap
	table1Probe string   // table1: circuit the traced layer sweep uses
	service     []string // circuits the service traffic submits, smallest first
	rate        float64  // service: open-loop arrival rate, jobs/s
	mcSamples   int      // service: samples per montecarlo job
	// probeMin and probeMax bound each layer probe of the traced sweep.
	probeMin, probeMax time.Duration
}

var fullScale = scale{
	ladderGates: 100_000,
	blockScale:  100,
	mcTrials:    200,
	sizing:      [3]int{1536, 512, 512},
	sizingIters: 16,
	table1:      repro.Benchmarks(),
	sensitivity: []string{"alu1", "alu2", "c432"},
	sensIters:   20,
	table1Probe: "c432",
	service:     []string{"alu2", "alu3", "c432", "alu1", "c880", "c499", "c1355", "c1908", "c2670"},
	rate:        25,
	mcSamples:   2000,
	probeMin:    250 * time.Millisecond,
	probeMax:    time.Second,
}

var tinyScale = scale{
	ladderGates: 300,
	blockScale:  25,
	mcTrials:    50,
	sizing:      [3]int{48, 12, 8},
	sizingIters: 8,
	table1:      []string{"alu2"},
	sensitivity: []string{"alu2"},
	sensIters:   4,
	table1Probe: "alu2",
	service:     []string{"alu2", "c432"},
	rate:        20,
	mcSamples:   200,
	probeMin:    5 * time.Millisecond,
	probeMax:    50 * time.Millisecond,
}

// RNG streams: one per use, so adding a draw to one input never shifts
// another input's sequence.
const (
	streamLadder uint64 = iota + 1
	streamSizing
	streamMC
	streamWhatIf
	streamTable1
	streamService
)

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// jitter moves w by up to ±frac of itself, never below 1.
func jitter(r *rand.Rand, w int, frac float64) int {
	v := int(math.Round(float64(w) * (1 + frac*(2*r.Float64()-1))))
	return max(v, 1)
}

// blockKind is one generator the signoff ladder composes; width is the
// nominal parameter giving about 1.1k logic gates.
type blockKind struct {
	name  string
	width int
	build func(name string, w int) *circuit.Circuit
}

var ladderKinds = []blockKind{
	{"alu", 80, gen.ALU},
	{"cla", 160, gen.CarryLookaheadAdder},
	{"sec", 208, func(n string, w int) *circuit.Circuit { return gen.SEC(n, w, true) }},
	{"mul", 10, func(n string, w int) *circuit.Circuit { return gen.ArrayMultiplier(n, w, true) }},
	{"cmp", 72, gen.Comparator},
	{"pint", 170, gen.PriorityInterrupt},
}

// ladderCircuit composes about sc.ladderGates logic gates out of the
// datapath and control generators: each round uses every block kind
// once, in a seeded order, with widths jittered by up to ±5%. Small
// blocks keep the total within about one percent of the target.
func ladderCircuit(seed int64, sc scale) *circuit.Circuit {
	r := newRand(seed, streamLadder)
	order := make([]int, len(ladderKinds))
	var blocks []*circuit.Circuit
	total := 0
	for i := 0; total < sc.ladderGates; i++ {
		if i%len(order) == 0 {
			for k := range order {
				order[k] = k
			}
			r.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		}
		k := ladderKinds[order[i%len(order)]]
		b := k.build(fmt.Sprintf("%s%d", k.name, i), jitter(r, max(k.width*sc.blockScale/100, 2), 0.05))
		blocks = append(blocks, b)
		total += b.NumLogicGates()
	}
	return gen.Compose("ladder", blocks...)
}

// sizingCircuit is the paper's optimizer target: a single-error-
// correcting network, an ALU and a lookahead adder, widths jittered by
// up to ±2% and composed in a seeded order.
func sizingCircuit(seed int64, sc scale) *circuit.Circuit {
	r := newRand(seed, streamSizing)
	blocks := []*circuit.Circuit{
		gen.SEC("sec", jitter(r, sc.sizing[0], 0.02), true),
		gen.ALU("alu", jitter(r, sc.sizing[1], 0.02)),
		gen.CarryLookaheadAdder("cla", jitter(r, sc.sizing[2], 0.02)),
	}
	r.Shuffle(len(blocks), func(a, b int) { blocks[a], blocks[b] = blocks[b], blocks[a] })
	return gen.Compose("sizing", blocks...)
}

// mcSeed is the Monte-Carlo seed of a run.
func mcSeed(seed int64) int64 { return newRand(seed, streamMC).Int64() }

// resizable lists a mapped design's logic gates with their size counts.
func resizable(sd *synth.Design) (ids []circuit.GateID, sizes []int) {
	c := sd.Circuit
	for id := 0; id < c.NumGates(); id++ {
		g := c.Gate(circuit.GateID(id))
		if !g.Fn.IsLogic() {
			continue
		}
		ids = append(ids, g.ID)
		sizes = append(sizes, sd.Lib.NumSizes(cells.Kind(g.CellRef)))
	}
	return ids, sizes
}

// whatIfCandidates draws k candidate sizings of one or two resizes each.
func whatIfCandidates(r *rand.Rand, sd *synth.Design, k int) [][]ssta.SizeChange {
	ids, sizes := resizable(sd)
	cands := make([][]ssta.SizeChange, k)
	for i := range cands {
		for e := 0; e < 1+r.IntN(2); e++ {
			j := r.IntN(len(ids))
			cands[i] = append(cands[i], ssta.SizeChange{Gate: ids[j], Size: r.IntN(sizes[j])})
		}
	}
	return cands
}

// svcDesign is one circuit the service traffic submits: its inline
// .bench text, the same text parsed locally (for gate names and the
// oracle), and its minimum-size moments (for yield queries).
type svcDesign struct {
	name        string
	bench       string
	d           *repro.Design
	mean, sigma float64
}

func newSvcDesign(name string) (*svcDesign, error) {
	g, err := repro.Generate(name)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := g.SaveBench(&buf); err != nil {
		return nil, err
	}
	d, err := repro.LoadBench(bytes.NewReader(buf.Bytes()), name)
	if err != nil {
		return nil, err
	}
	a := d.Analyze()
	return &svcDesign{name: name, bench: buf.String(), d: d, mean: a.Mean, sigma: a.Sigma}, nil
}

// The service mix per block of 20 requests: 9 analyze with yield
// queries, 4 Monte Carlo, 2 WNSS path, 3 what-if, 2 optimize (at most
// 10 iterations). Four of the twenty repeat an earlier request of the
// same op exactly.
var serviceMix = []struct {
	op string
	n  int
}{
	{client.OpAnalyze, 9},
	{client.OpMonteCarlo, 4},
	{client.OpWNSSPath, 2},
	{client.OpWhatIf, 3},
	{client.OpOptimize, 2},
}

const (
	mixBlock        = 20
	repeatsPerMix   = 4
	repeatGap       = 20 // a repeat copies a request at least this far back
	serviceOptIters = 10
)

// serviceRequests draws n requests. The mix is stratified: every block
// of 20 holds exactly the serviceMix ops in a seeded order, and each op
// cycles through the circuits in a seeded order, so two seeds differ in
// order, parameters and which requests repeat, not in how much work the
// stream holds. Fresh requests never collide with earlier ones (their
// float parameters or seeds are drawn fresh), so result-memo hits come
// only from the planned repeats.
func serviceRequests(seed int64, designs []*svcDesign, n, mcSamples int) []client.JobRequest {
	r := newRand(seed, streamService)
	var slots []string
	for _, m := range serviceMix {
		for i := 0; i < m.n; i++ {
			slots = append(slots, m.op)
		}
	}
	cycle := make(map[string][]int) // per op: circuit order, refilled when used up
	nextDesign := func(op string) *svcDesign {
		if len(cycle[op]) == 0 {
			cycle[op] = r.Perm(len(designs))
		}
		i := cycle[op][0]
		cycle[op] = cycle[op][1:]
		return designs[i]
	}
	byOp := make(map[string][]int) // op -> indices of earlier requests
	reqs := make([]client.JobRequest, 0, n)
	for len(reqs) < n {
		block := append([]string(nil), slots...)
		r.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		repeat := make(map[int]bool)
		for _, i := range r.Perm(mixBlock)[:repeatsPerMix] {
			repeat[i] = true
		}
		for i, op := range block {
			if len(reqs) == n {
				break
			}
			if repeat[i] {
				var old []int
				for _, j := range byOp[op] {
					if j <= len(reqs)-repeatGap {
						old = append(old, j)
					}
				}
				if len(old) > 0 {
					reqs = append(reqs, reqs[old[r.IntN(len(old))]])
					continue
				}
			}
			reqs = append(reqs, freshRequest(r, op, len(byOp[op]), nextDesign(op), mcSamples))
			byOp[op] = append(byOp[op], len(reqs)-1)
		}
	}
	return reqs
}

// freshRequest draws the nth new request of op. Optimize requests cap
// the optimizer at serviceOptIters iterations and alternate lambda 3
// and 9, so that no seed draws a run of the slowest jobs.
func freshRequest(r *rand.Rand, op string, nth int, d *svcDesign, mcSamples int) client.JobRequest {
	req := client.JobRequest{Op: op, Bench: d.bench, Name: d.name}
	switch op {
	case client.OpAnalyze:
		base := d.mean + d.sigma*r.Float64()
		req.YieldPeriods = []float64{base, base + d.sigma, base + 2*d.sigma}
		req.TargetYields = []float64{0.9, 0.99}
	case client.OpMonteCarlo:
		req.Samples = mcSamples
		req.Seed = r.Int64()
	case client.OpWNSSPath:
		req.Lambda = 3 + 6*r.Float64()
	case client.OpWhatIf:
		sd, _ := d.d.Internal()
		for _, cand := range whatIfCandidates(r, sd, 16) {
			edits := make([]client.Edit, len(cand))
			for i, ch := range cand {
				edits[i] = client.Edit{Gate: sd.Circuit.Gate(ch.Gate).Name, Size: ch.Size}
			}
			req.Candidates = append(req.Candidates, edits)
		}
	case client.OpOptimize:
		req.Lambda = []float64{3, 9}[nth%2]
		req.MaxIters = serviceOptIters
		req.Seed = r.Int64()
	}
	return req
}
