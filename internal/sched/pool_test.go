package sched

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestBlockSizeDependsOnlyOnN(t *testing.T) {
	for _, n := range []int{0, 1, 7, 31, 32, 33, 1000, 8192, 8193, 409600} {
		SetWorkers(1)
		b1, nb1 := BlockSize(n), NumBlocks(n)
		SetWorkers(8)
		b8, nb8 := BlockSize(n), NumBlocks(n)
		SetWorkers(0)
		if b1 != b8 || nb1 != nb8 {
			t.Fatalf("n=%d: blocking changed with worker count: (%d,%d) vs (%d,%d)", n, b1, nb1, b8, nb8)
		}
		if n > 0 {
			if b1 < 1 || b1 > maxBlock {
				t.Fatalf("n=%d: block %d out of range", n, b1)
			}
			if (nb1-1)*b1 >= n || nb1*b1 < n {
				t.Fatalf("n=%d: %d blocks of %d do not tile the range", n, nb1, b1)
			}
		}
	}
}

func TestRunCoversRangeOnce(t *testing.T) {
	defer SetWorkers(0)
	for _, w := range []int{1, 2, 3, 8} {
		SetWorkers(w)
		for _, n := range []int{0, 1, 5, 100, 4097} {
			counts := make([]int32, n)
			Run(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", w, n, i, c)
				}
			}
		}
	}
}

func TestRunIndexedSlotsAreExclusive(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(8)
	n := 10000
	slots := Slots()
	busy := make([]int32, slots)
	var covered atomic.Int64
	RunIndexed(n, func(slot, lo, hi int) {
		if slot < 0 || slot >= slots {
			t.Errorf("slot %d out of [0,%d)", slot, slots)
			return
		}
		if atomic.AddInt32(&busy[slot], 1) != 1 {
			t.Errorf("slot %d used concurrently", slot)
		}
		covered.Add(int64(hi - lo))
		atomic.AddInt32(&busy[slot], -1)
	})
	if covered.Load() != int64(n) {
		t.Fatalf("covered %d of %d indices", covered.Load(), n)
	}
}

// TestReduceSumBitIdentical is the pool's core contract: the sum is
// bit-identical at every worker count, including against a width-1 pool,
// because the block decomposition and fold order depend only on n.
func TestReduceSumBitIdentical(t *testing.T) {
	defer SetWorkers(0)
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 17, 1000, 8192, 50000} {
		x := make([]float64, n)
		for i := range x {
			// Wildly varying magnitudes make FP addition order visible.
			x[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(12)-6))
		}
		partial := func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				s += x[i]
			}
			return s
		}
		SetWorkers(1)
		ref := ReduceSum(n, partial)
		for _, w := range []int{2, 4, 8} {
			SetWorkers(w)
			for rep := 0; rep < 5; rep++ {
				if got := ReduceSum(n, partial); got != ref {
					t.Fatalf("n=%d workers=%d: sum %x != width-1 sum %x", n, w, got, ref)
				}
			}
		}
	}
}

func TestPanicPropagatesToDispatcher(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
		// The pool must be usable again after a panic.
		var n atomic.Int32
		Run(100, func(lo, hi int) { n.Add(int32(hi - lo)) })
		if n.Load() != 100 {
			t.Fatalf("pool broken after panic: covered %d", n.Load())
		}
	}()
	Run(1000, func(lo, hi int) {
		if lo == 0 {
			panic("boom")
		}
	})
	t.Fatal("unreachable: panic did not propagate")
}

// TestNestedDispatchRunsInline: a body that dispatches again must not
// deadlock — the inner call finds the pool busy and runs inline, which
// is bit-identical by the blocking contract.
func TestNestedDispatchRunsInline(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	var total atomic.Int64
	Run(100, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			total.Add(int64(ReduceSum(10, func(l, h int) float64 { return float64(h - l) })))
		}
	})
	if total.Load() != 1000 {
		t.Fatalf("nested total = %d, want 1000", total.Load())
	}
}

func TestRunWidthHonorsRequest(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(1) // configured width 1; RunWidth overrides per call
	var calls atomic.Int32
	RunWidth(10000, 4, func(lo, hi int) { calls.Add(1) })
	if got := int(calls.Load()); got != NumBlocks(10000) {
		t.Fatalf("RunWidth made %d block calls, want %d", got, NumBlocks(10000))
	}
}

func TestSetWorkersDefault(t *testing.T) {
	SetWorkers(0)
	if Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers() = %d, want GOMAXPROCS %d", Workers(), runtime.GOMAXPROCS(0))
	}
	if Slots() < Workers() {
		t.Fatalf("Slots() = %d < Workers() = %d", Slots(), Workers())
	}
}

// BenchmarkDispatch measures the steady-state dispatch cost; the
// zero-alloc contract itself is enforced by TestDispatchZeroAllocs.
func BenchmarkDispatch(b *testing.B) {
	SetWorkers(4)
	defer SetWorkers(0)
	x := make([]float64, 8192)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] += 1
		}
	}
	Run(len(x), body) // warm up: spawn workers, size scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(len(x), body)
	}
}

// BenchmarkDispatchReduce is the reduction counterpart: the blocked
// deterministic sum must also be allocation-free in steady state.
func BenchmarkDispatchReduce(b *testing.B) {
	SetWorkers(4)
	defer SetWorkers(0)
	x := make([]float64, 8192)
	for i := range x {
		x[i] = float64(i)
	}
	partial := func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += x[i]
		}
		return s
	}
	sink := ReduceSum(len(x), partial)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += ReduceSum(len(x), partial)
	}
	_ = sink
}

// TestDispatchZeroAllocs enforces the steady-state contract in tier-1:
// once the workers exist, neither a Run dispatch nor a blocked reduction
// may touch the heap.
func TestDispatchZeroAllocs(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	x := make([]float64, 8192)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] += 1
		}
	}
	partial := func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += x[i]
		}
		return s
	}
	Run(len(x), body)              // warm up: spawn workers
	_ = ReduceSum(len(x), partial) // size the partials scratch
	if n := testing.AllocsPerRun(100, func() { Run(len(x), body) }); n != 0 {
		t.Fatalf("Run dispatch allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = ReduceSum(len(x), partial) }); n != 0 {
		t.Fatalf("ReduceSum dispatch allocates %.1f times per call, want 0", n)
	}
}
