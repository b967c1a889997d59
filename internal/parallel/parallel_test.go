package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Resolve(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Resolve(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Resolve(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	for _, n := range []int{1, 4, 17} {
		if got := Resolve(n); got != n {
			t.Errorf("Resolve(%d) = %d", n, got)
		}
	}
}

func TestForEachWorkerCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		const n = 257
		var hits [n]atomic.Int32
		ForEachWorker(workers, n, func(_, i int) { hits[i].Add(1) })
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, c)
			}
		}
	}
}

func TestForEachWorkerEmptyAndTiny(t *testing.T) {
	ForEachWorker(4, 0, func(int, int) { t.Fatal("fn called for n=0") })
	calls := 0
	ForEachWorker(8, 1, func(int, int) { calls++ })
	if calls != 1 {
		t.Fatalf("n=1: %d calls", calls)
	}
}

func TestForEachWorkerIndicesBounded(t *testing.T) {
	const workers, n = 4, 100
	var bad atomic.Int32
	ForEachWorker(workers, n, func(w, i int) {
		if w < 0 || w >= workers {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatal("worker index out of [0, workers)")
	}
}

func TestLevelsRespectsBarriers(t *testing.T) {
	// Items record the level they ran in; a later level must never start
	// before all items of the previous one completed.
	levels := [][]int{{0, 1, 2}, {3, 4}, {5, 6, 7, 8}}
	var done [9]atomic.Bool
	Levels(4, levels, func(_ int, item int) {
		// Everything in strictly lower levels must already be done.
		for l, lv := range levels {
			for _, it := range lv {
				if it == item {
					for _, prev := range levels[:l] {
						for _, p := range prev {
							if !done[p].Load() {
								t.Errorf("item %d ran before item %d of an earlier level", item, p)
							}
						}
					}
				}
			}
		}
		done[item].Store(true)
	})
	for i := range done {
		if !done[i].Load() {
			t.Fatalf("item %d never ran", i)
		}
	}
}

func TestChunksPartition(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		const n = 100
		var hits [n]atomic.Int32
		Chunks(workers, n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", workers, i, c)
			}
		}
	}
}

func TestSeedStreamDeterministicAndDistinct(t *testing.T) {
	a := NewSeedStream(42)
	b := NewSeedStream(42)
	seen := make(map[uint64]int)
	for i := 0; i < 10000; i++ {
		if a.Uint64(i) != b.Uint64(i) {
			t.Fatalf("same root, same index %d, different seeds", i)
		}
		seen[a.Uint64(i)] = i
	}
	if len(seen) != 10000 {
		t.Fatalf("only %d distinct seeds out of 10000", len(seen))
	}
	// Nearby roots must not collide on the same index either.
	c := NewSeedStream(43)
	for i := 0; i < 1000; i++ {
		if a.Uint64(i) == c.Uint64(i) {
			t.Fatalf("roots 42 and 43 collide at index %d", i)
		}
	}
}
