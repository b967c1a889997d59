// Flat structure-of-arrays PDF storage. The statistical engines keep one
// small PDF per circuit node; storing each as a separately heap-allocated
// pair of slices costs a pointer chase per fanin read and defeats
// prefetching on the level-ordered walk. An Arena instead packs every
// node's support and probability vectors into two contiguous []float64
// blocks at a fixed per-node stride, with a per-node length header — the
// paper's own 10-15-points-per-PDF accuracy lever is what makes the
// fixed-width layout cheap.
//
// The kernels (SumInto, MaxInto, MaxNInto) run the exact Scratch cores
// and write results in place into arena slots: bit-identical values to
// the allocating operators, zero allocations once the scratch is warm.
//
// Aliasing rules: operand PDFs may alias arena slots (View), including
// the destination slot itself — every kernel fully consumes its operands
// into scratch workspace before the first destination write, except the
// singleton-shift fast path of SumInto, which writes strictly
// element-by-element and is safe for self-aliasing too. What is NOT safe
// is concurrent writes to one slot, or writing a slot while another
// goroutine reads it; the engines guarantee this by level ordering.
package dpdf

import "repro/internal/normal"

// Arena is flat SoA storage for a fixed set of node PDFs.
type Arena struct {
	stride int
	xs, ps []float64
	n      []int32
}

// NewArena returns an arena with capacity for nodes PDFs of at most
// stride points each. All slots start empty (length zero).
func NewArena(nodes, stride int) *Arena {
	if stride < 1 {
		stride = DefaultPoints
	}
	return &Arena{
		stride: stride,
		xs:     make([]float64, nodes*stride),
		ps:     make([]float64, nodes*stride),
		n:      make([]int32, nodes),
	}
}

// Grow extends the arena to at least nodes slots. Existing slots keep
// their contents; new ones start empty. Views taken before a Grow may
// no longer alias the arena.
func (a *Arena) Grow(nodes int) {
	if k := nodes - len(a.n); k > 0 {
		a.xs = append(a.xs, make([]float64, k*a.stride)...)
		a.ps = append(a.ps, make([]float64, k*a.stride)...)
		a.n = append(a.n, make([]int32, k)...)
	}
}

// Nodes returns the number of slots.
func (a *Arena) Nodes() int { return len(a.n) }

// Stride returns the per-slot point capacity.
func (a *Arena) Stride() int { return a.stride }

// Len returns the number of points in slot i (0 for an empty slot).
func (a *Arena) Len(i int) int { return int(a.n[i]) }

// Clear empties slot i.
func (a *Arena) Clear(i int) { a.n[i] = 0 }

// View returns a PDF aliasing slot i's storage: no copy, valid until the
// slot is next written. An empty slot yields an invalid zero-length PDF.
func (a *Arena) View(i int) PDF {
	off, end := i*a.stride, i*a.stride+int(a.n[i])
	return PDF{xs: a.xs[off:end:end], ps: a.ps[off:end:end]}
}

// PDF returns a freshly allocated copy of slot i.
func (a *Arena) PDF(i int) PDF {
	off, k := i*a.stride, int(a.n[i])
	return PDF{
		xs: append(make([]float64, 0, k), a.xs[off:off+k]...),
		ps: append(make([]float64, 0, k), a.ps[off:off+k]...),
	}
}

// Set copies p into slot i. p may alias the slot itself.
func (a *Arena) Set(i int, p PDF) {
	if len(p.xs) > a.stride {
		panic("dpdf: PDF exceeds arena stride")
	}
	off := i * a.stride
	copy(a.xs[off:], p.xs)
	copy(a.ps[off:], p.ps)
	a.n[i] = int32(len(p.xs))
}

// SetPoint stores the degenerate distribution Point(x) in slot i.
func (a *Arena) SetPoint(i int, x float64) {
	off := i * a.stride
	a.xs[off], a.ps[off] = x, 1
	a.n[i] = 1
}

// Equal reports whether slot i is bit-identical to q — the incremental
// engines' early-cutoff predicate, evaluated without materializing the
// slot.
func (a *Arena) Equal(i int, q PDF) bool {
	k := int(a.n[i])
	if k != len(q.xs) {
		return false
	}
	off := i * a.stride
	for j := 0; j < k; j++ {
		if a.xs[off+j] != q.xs[j] || a.ps[off+j] != q.ps[j] {
			return false
		}
	}
	return true
}

// Moments returns slot i's (mean, variance), with arithmetic identical
// to PDF.Moments.
func (a *Arena) Moments(i int) normal.Moments {
	off, k := i*a.stride, int(a.n[i])
	xs, ps := a.xs[off:off+k], a.ps[off:off+k]
	return normal.Moments{Mean: sliceMean(xs, ps), Var: sliceVariance(xs, ps)}
}

// Mean returns slot i's expected value (identical to PDF.Mean).
func (a *Arena) Mean(i int) float64 {
	off, k := i*a.stride, int(a.n[i])
	return sliceMean(a.xs[off:off+k], a.ps[off:off+k])
}

// slot returns slot i's backing arrays truncated to the stride — the
// write target of the kernels.
func (a *Arena) slot(i int) (dx, dp []float64) {
	off := i * a.stride
	return a.xs[off : off+a.stride], a.ps[off : off+a.stride]
}

// checkPts guards the kernels: results of up to maxPts points (and
// singleton-shift results of up to len(b) points) must fit the stride.
func (a *Arena) checkPts(maxPts int) {
	if maxPts > a.stride || maxPts < 1 {
		panic("dpdf: kernel maxPts outside arena stride")
	}
}

// SumInto computes Sum(x, y, maxPts) into slot dst: identical values to
// Scratch.Sum, no allocation. x and y may alias arena slots, including
// dst.
func (a *Arena) SumInto(s *Scratch, dst int, x, y PDF, maxPts int) {
	a.checkPts(maxPts)
	dx, dp := a.slot(dst)
	if x.Len() == 1 {
		if y.Len() > a.stride {
			panic("dpdf: shifted PDF exceeds arena stride")
		}
		a.n[dst] = int32(shiftInto(y, x.xs[0], dx, dp))
		return
	}
	if y.Len() == 1 {
		if x.Len() > a.stride {
			panic("dpdf: shifted PDF exceeds arena stride")
		}
		a.n[dst] = int32(shiftInto(x, y.xs[0], dx, dp))
		return
	}
	s.convolve(x, y)
	a.n[dst] = int32(s.binWeightedInto(maxPts, dx, dp))
}

// MaxInto computes Max(x, y, maxPts) into slot dst: identical values to
// Scratch.Max, no allocation.
func (a *Arena) MaxInto(s *Scratch, dst int, x, y PDF, maxPts int) {
	a.checkPts(maxPts)
	dx, dp := a.slot(dst)
	s.maxWeighted(x, y)
	a.n[dst] = int32(s.binWeightedInto(maxPts, dx, dp))
}

// MaxNInto folds Max over ops into slot dst: identical values to
// Scratch.MaxN, no allocation. An empty ops yields Point(0); a single
// operand is copied verbatim (MaxN's alias semantics, materialized).
func (a *Arena) MaxNInto(s *Scratch, dst int, ops []PDF, maxPts int) {
	a.checkPts(maxPts)
	switch len(ops) {
	case 0:
		a.SetPoint(dst, 0)
		return
	case 1:
		if ops[0].Len() > a.stride {
			panic("dpdf: PDF exceeds arena stride")
		}
		a.Set(dst, ops[0])
		return
	}
	// Fold through the scratch accumulator; only the final pairwise Max
	// writes the destination slot. Each step is maxWeighted + bin, the
	// exact decomposition of Scratch.Max.
	need := maxPts
	if cap(s.fx) < need {
		s.fx = make([]float64, need)
		s.fp = make([]float64, need)
	}
	s.maxWeighted(ops[0], ops[1])
	for k := 2; k < len(ops); k++ {
		// binWeightedInto reads only scratch workspace by this point, so
		// writing the accumulator it previously produced is safe.
		s.fn = s.binWeightedInto(maxPts, s.fx[:need], s.fp[:need])
		acc := PDF{xs: s.fx[:s.fn], ps: s.fp[:s.fn]}
		s.maxWeighted(acc, ops[k])
	}
	dx, dp := a.slot(dst)
	a.n[dst] = int32(s.binWeightedInto(maxPts, dx, dp))
}
