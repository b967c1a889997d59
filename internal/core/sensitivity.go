package core

import (
	"sort"
	"time"

	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/ssta"
	"repro/internal/synth"
	"repro/internal/variation"
)

// sensMove is one candidate single-gate resize inside a SensitivitySizer
// iteration, carrying the exact global cost the batched what-if pass
// assigned it.
type sensMove struct {
	gate  circuit.GateID
	size  int
	gain  float64 // cur.Cost - candidate cost (> minGain for improving moves)
	dArea float64 // candidate area - current area (negative = downsize)
	tie   uint64  // seeded deterministic tie-break key
}

// sensTieHash is the deterministic tie-breaking key for equal-score
// moves: a splitmix64-style mix of (seed, gate, size). Two runs with the
// same seed order ties identically on every host; changing the seed
// permutes only the tied moves.
func sensTieHash(seed int64, gate circuit.GateID, size int) uint64 {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	x ^= uint64(gate)*0xbf58476d1ce4e5b9 + uint64(size)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sensFree reports whether a move costs no area (downsizes and lateral
// moves): such moves strictly dominate any paid move, so they rank in a
// class of their own, ordered by raw gain.
func (m sensMove) sensFree() bool { return m.dArea <= 0 }

// sensLess is the total order SensitivitySizer commits moves in:
// area-free improvements first (by gain), then paid moves by
// sensitivity gain/Δarea, ties broken by the seeded hash and finally by
// (gate, size) so the order is total and host-independent.
func sensLess(a, b sensMove) bool {
	af, bf := a.sensFree(), b.sensFree()
	if af != bf {
		return af
	}
	if af {
		if a.gain != b.gain {
			return a.gain > b.gain
		}
	} else {
		sa, sb := a.gain/a.dArea, b.gain/b.dArea
		if sa != sb {
			return sa > sb
		}
	}
	if a.tie != b.tie {
		return a.tie < b.tie
	}
	if a.gate != b.gate {
		return a.gate < b.gate
	}
	return a.size < b.size
}

// SensitivitySizer sizes the design in place to minimize
// max_i(mean_i + lambda*sigma_i), like StatisticalGreedy, but with a
// sensitivity-driven move selection in the style of Agarwal/Chopra/
// Blaauw's statistical gate sizing: every iteration scores the EXACT
// global cost of every candidate single-gate resize (within MaxStep
// notches of its current size) in one batched what-if pass over the
// incremental analyzer — ∂cost/∂size for the whole circuit at once —
// then commits the best move-set under a per-iteration area budget,
// area-free moves first, paid moves by cost gain per unit area. Because
// the batch pass prices each candidate against the unchanged circuit,
// a committed set whose interactions overshoot is detected by the
// global re-analysis and replaced by the single highest-gain move,
// whose improvement the batch pass already proved.
//
// The run honors the full Options machinery: Ctx is polled once per
// outer iteration, Workers parallelizes the batch pass and the repairs
// (bit-identical at any worker count, as for every backend),
// Checkpoint/Resume retrace interrupted runs bit-for-bit, and Seed keys
// the deterministic tie-breaking between equal-score moves.
func SensitivitySizer(d *synth.Design, vm *variation.Model, opts Options) (*Result, error) {
	return sensitivitySizer(d, vm, opts, newStatAnalyzer(d, vm, opts))
}

// sensitivitySizer is SensitivitySizer over a given analyzer.
func sensitivitySizer(d *synth.Design, vm *variation.Model, opts Options, az *analyzer) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	res := &Result{StoppedBy: "max-iters"}

	resume, err := opts.resumeFor("sensitivity", d)
	if err != nil {
		return nil, err
	}
	if resume != nil {
		d.Circuit.RestoreSizes(resume.Sizes)
	}

	full := az.refresh()
	res.Initial = snapshot(d, full, opts.Lambda)
	best := res.Initial
	bestSizes := d.Circuit.SizeSnapshot()
	bad := 0
	startIter := 0
	if resume != nil {
		res.Initial = resume.Initial
		best = resume.Best
		bestSizes = append([]int(nil), resume.BestSizes...)
		bad = resume.Bad
		startIter = resume.Iter
		res.Iterations = startIter
	}

	for iter := startIter; iter < opts.maxIters(); iter++ {
		if err := opts.ctxErr(); err != nil {
			return nil, err
		}
		res.Iterations = iter + 1
		cur := snapshot(d, full, opts.Lambda)
		// Same lexicographic best tracking as StatisticalGreedy: lower
		// cost wins, numerically equal cost prefers the lower sigma.
		if cur.Cost < best.Cost-1e-9 || (cur.Cost < best.Cost+1e-9 && cur.Sigma < best.Sigma) {
			best = cur
			bestSizes = d.Circuit.SizeSnapshot()
			bad = 0
		} else if iter > 0 {
			bad++
			if bad >= opts.patience() {
				res.StoppedBy = "converged"
				break
			}
		}
		if opts.TargetCost > 0 && cur.Cost <= opts.TargetCost {
			res.StoppedBy = "target"
			break
		}

		// Enumerate every candidate single-gate move within MaxStep
		// notches (MaxStep < 0 scans the gate's whole size range), and
		// price them all in one batched what-if pass.
		var cands [][]ssta.SizeChange
		var moves []sensMove
		step := opts.maxStep()
		for i := range d.Circuit.Gates {
			g := &d.Circuit.Gates[i]
			if !g.Fn.IsLogic() || g.CellRef < 0 {
				continue
			}
			kind := cells.Kind(g.CellRef)
			n := d.Lib.NumSizes(kind)
			lo, hi := 0, n-1
			if step > 0 {
				if lo = g.SizeIdx - step; lo < 0 {
					lo = 0
				}
				if hi = g.SizeIdx + step; hi > n-1 {
					hi = n - 1
				}
			}
			curArea := d.Lib.Cell(kind, g.SizeIdx).Area
			for s := lo; s <= hi; s++ {
				if s == g.SizeIdx {
					continue
				}
				cands = append(cands, []ssta.SizeChange{{Gate: g.ID, Size: s}})
				moves = append(moves, sensMove{
					gate:  g.ID,
					size:  s,
					dArea: d.Lib.Cell(kind, s).Area - curArea,
					tie:   sensTieHash(opts.Seed, g.ID, s),
				})
			}
		}
		if len(cands) == 0 {
			res.StoppedBy = "converged"
			break
		}
		costs := az.whatIf(cands, opts.Lambda)

		// Keep the improving moves, ranked by sensitivity, remembering
		// the single highest-gain move as the overshoot fallback (ties
		// keep the first in enumeration order — deterministic).
		var improving []sensMove
		singleGain := 0.0
		singleGate, singleSize := circuit.None, 0
		for i := range moves {
			moves[i].gain = cur.Cost - costs[i]
			if moves[i].gain <= opts.minGain() {
				continue
			}
			if moves[i].gain > singleGain {
				singleGain = moves[i].gain
				singleGate, singleSize = moves[i].gate, moves[i].size
			}
			improving = append(improving, moves[i])
		}
		if len(improving) == 0 {
			res.StoppedBy = "converged"
			break
		}
		sort.Slice(improving, func(i, j int) bool { return sensLess(improving[i], improving[j]) })

		// Commit the best move-set under the per-iteration area budget:
		// one move per gate, walked in sensitivity order. The top move
		// always commits (progress is never budget-starved) and
		// downsizing moves refund budget for paid moves further down.
		budget := opts.areaBudgetFrac() * cur.Area
		spent := 0.0
		used := make(map[circuit.GateID]bool, len(improving))
		var chosen []sensMove
		for _, m := range improving {
			if used[m.gate] {
				continue
			}
			if m.dArea > 0 && len(chosen) > 0 && spent+m.dArea > budget {
				continue
			}
			used[m.gate] = true
			chosen = append(chosen, m)
			spent += m.dArea
		}

		startSizes := d.Circuit.SizeSnapshot()
		for _, m := range chosen {
			d.Circuit.Gate(m.gate).SizeIdx = m.size
		}
		// Applying the set IS its analysis: the refresh repairs the dirty
		// cones and verifies the set globally in one shot.
		full = az.refresh()
		move := "sens-batch"
		resized := len(chosen)
		if len(chosen) > 1 && full.Cost(d, opts.Lambda) >= cur.Cost {
			// The committed moves interacted badly. Fall back to the
			// single highest-gain move, already proven improving by the
			// batch pass.
			d.Circuit.RestoreSizes(startSizes)
			d.Circuit.Gate(singleGate).SizeIdx = singleSize
			full = az.refresh()
			move = "sens-single"
			resized = 1
		}
		res.History = append(res.History, IterStats{
			Iter: iter, Cost: cur.Cost, Mean: cur.Mean, Sigma: cur.Sigma,
			Area: cur.Area, PathLen: len(cands), Resized: resized, Move: move,
		})
		opts.emit(Checkpoint{
			Op: "sensitivity", Iter: iter + 1, Cost: full.Cost(d, opts.Lambda),
			Sizes: d.Circuit.SizeSnapshot(), BestSizes: bestSizes,
			Best: best, Bad: bad, Initial: res.Initial,
		})
	}

	// Keep the best sizing seen, exactly like StatisticalGreedy.
	final := snapshot(d, az.refresh(), opts.Lambda)
	if best.Cost < final.Cost {
		d.Circuit.RestoreSizes(bestSizes)
		final = best
	}
	res.Final = final
	res.Runtime = time.Since(start)
	res.AnalysisTime = az.dur
	res.Evals = az.evals
	res.NodeEvals = az.nodeEvals
	return res, nil
}
