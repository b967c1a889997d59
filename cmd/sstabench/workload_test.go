package main

import (
	"encoding/json"
	"testing"

	"repro"
	"repro/internal/circuit"
	"repro/internal/designcache"
	"repro/internal/gen"
)

// TestSeededInputs pins the input contract: the same seed gives the same
// designs (by content hash) and the same request sequence, another seed
// gives different ones, and seeds never move a design's size by more
// than 10% from nominal.
func TestSeededInputs(t *testing.T) {
	designs := []struct {
		name    string
		build   func(seed int64, sc scale) *circuit.Circuit
		nominal int // logic gates at full scale
	}{
		{wSignoff, ladderCircuit, fullScale.ladderGates},
		{wSizing, sizingCircuit, gen.Compose("nominal", gen.SEC("sec", 1536, true), gen.ALU("alu", 512),
			gen.CarryLookaheadAdder("cla", 512)).NumLogicGates()},
	}
	for _, tc := range designs {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{1, 2} {
				if g := tc.build(seed, fullScale).NumLogicGates(); g < tc.nominal*9/10 || g > tc.nominal*11/10 {
					t.Errorf("seed %d: %d logic gates, want %d ± 10%%", seed, g, tc.nominal)
				}
			}
			hash := func(seed int64) string {
				d, err := repro.FromCircuit(tc.build(seed, tinyScale))
				if err != nil {
					t.Fatal(err)
				}
				h, err := designcache.HashDesign(d)
				if err != nil {
					t.Fatal(err)
				}
				return h
			}
			if hash(1) != hash(1) {
				t.Error("seed 1 built two different designs")
			}
			if hash(1) == hash(2) {
				t.Error("seeds 1 and 2 built the same design")
			}
		})
	}

	t.Run(wService, func(t *testing.T) {
		var list []*svcDesign
		for _, n := range tinyScale.service {
			d, err := newSvcDesign(n)
			if err != nil {
				t.Fatal(err)
			}
			list = append(list, d)
		}
		seq := func(seed int64) string {
			b, err := json.Marshal(serviceRequests(seed, list, 200, 100))
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
		if seq(1) != seq(1) {
			t.Error("seed 1 drew two different request sequences")
		}
		if seq(1) == seq(2) {
			t.Error("seeds 1 and 2 drew the same request sequence")
		}
		reqs := serviceRequests(1, list, 200, 100)
		ops := make(map[string]int)
		repeats := 0
		seen := make(map[string]bool)
		for _, r := range reqs {
			ops[r.Op]++
			b, _ := json.Marshal(r)
			if seen[string(b)] {
				repeats++
			}
			seen[string(b)] = true
		}
		for _, m := range serviceMix {
			if want := m.n * len(reqs) / mixBlock; ops[m.op] != want {
				t.Errorf("%d %s requests, want %d", ops[m.op], m.op, want)
			}
		}
		if repeats < len(reqs)/10 || repeats > len(reqs)/4 {
			t.Errorf("%d of %d requests repeat an earlier one, want about a fifth", repeats, len(reqs))
		}
	})
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(n=4), which the regression pipeline uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6},
	} {
		s := summarize(tc.data)
		if s.Q1 != tc.q1 || s.Q3 != tc.q3 {
			t.Errorf("quartiles of %v = %v, %v; want %v, %v", tc.data, s.Q1, s.Q3, tc.q1, tc.q3)
		}
	}
}
