package par

import (
	"math"
	"testing"
	"time"

	"icoearth/internal/grid"
)

// TestFoldSumSteadyStateAllocs pins what makes the message-based
// collectives cost nothing: a FoldSum allocates nothing on either rank
// (the partials are lent, the answer travels in the root's foldOut), and a
// halo exchange allocates one buffer per neighbour message (packed once,
// handed over by reference). Under a deadline the figures are the same:
// whether a Recv finds its frame queued or has to wait is a matter of
// goroutine timing, so the wait re-arms the rank's one timer instead of
// allocating one. testing.AllocsPerRun counts the whole process, so rank
// 0's figure includes rank 1 running the same calls in lockstep.
func TestFoldSumSteadyStateAllocs(t *testing.T) {
	g := grid.New(grid.R2B(1))
	d, err := grid.Decompose(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, deadline := range []time.Duration{0, time.Minute} {
		foldSumSteadyStateAllocs(t, d, deadline)
	}
}

func foldSumSteadyStateAllocs(t *testing.T, d *grid.Decomposition, deadline time.Duration) {
	const runs = 200
	w := NewWorld(2)
	w.SetDeadline(deadline)
	w.Run(func(c *Comm) {
		p := d.Parts[c.Rank]
		h := c.haloOrFatal(t, p)
		field := make([]float64, len(p.Owner)+len(p.HaloCells))
		parts := make([]float64, 16)
		fold := func() { c.FoldSum(parts) }
		exchange := func() {
			if err := h.Exchange(field, 1); err != nil {
				t.Error(err)
			}
		}
		if c.Rank != 0 {
			// AllocsPerRun calls its function once to warm up, then runs times.
			for i := 0; i < runs+1; i++ {
				fold()
			}
			for i := 0; i < runs+1; i++ {
				exchange()
			}
			return
		}
		if n := testing.AllocsPerRun(runs, fold); n != 0 {
			t.Errorf("deadline %v: FoldSum allocates %v times per call over both ranks, want 0", deadline, n)
		}
		// Two ranks, one neighbour each: two messages per exchange.
		if n := testing.AllocsPerRun(runs, exchange); n > 2 {
			t.Errorf("deadline %v: Exchange allocates %v times per call over both ranks, want <= 2 (one per message)", deadline, n)
		}
	})
}

// TestLentBuffersStress: FoldSum and AllreduceVec lend a peer's input to
// the root instead of copying it, and FoldSum's answer reuses one buffer
// on the root. Every rank rewrites its inputs immediately after each
// call returns; if a lent buffer could still be read then, the race
// detector sees it and the folded bits go wrong. Each result must equal
// the serial rank-order fold bit for bit.
func TestLentBuffersStress(t *testing.T) {
	const n, rounds, width = 4, 2000, 5
	input := func(rank, round, i int) float64 {
		return math.Sin(float64(rank*7919+round*31+i)) * math.Exp(float64((rank+round+i)%9))
	}
	w := NewWorld(n)
	w.SetDeadline(5 * time.Second) // a rank that bails out must not hang the rest
	w.Run(func(c *Comm) {
		parts := make([]float64, width+c.Rank) // ragged, as FoldSum allows
		vec := make([]float64, width)
		for round := 0; round < rounds; round++ {
			for i := range parts {
				parts[i] = input(c.Rank, round, i)
			}
			for i := range vec {
				vec[i] = input(c.Rank, round, i+100)
			}
			var wantFold float64
			wantVec := make([]float64, width)
			for r := 0; r < n; r++ {
				for i := 0; i < width+r; i++ {
					wantFold += input(r, round, i)
				}
				for i := range wantVec {
					if v := input(r, round, i+100); r == 0 {
						wantVec[i] = v
					} else {
						wantVec[i] += v
					}
				}
			}
			gotFold := c.FoldSum(parts)
			gotVec := c.AllreduceVec(OpSum, vec)
			if math.Float64bits(gotFold) != math.Float64bits(wantFold) {
				t.Errorf("rank %d round %d: FoldSum = %x, serial fold = %x", c.Rank, round, gotFold, wantFold)
				return
			}
			for i := range wantVec {
				if math.Float64bits(gotVec[i]) != math.Float64bits(wantVec[i]) {
					t.Errorf("rank %d round %d: AllreduceVec[%d] = %x, serial fold = %x", c.Rank, round, i, gotVec[i], wantVec[i])
					return
				}
			}
			gotVec[0] = math.NaN() // the result is this rank's own
		}
	})
}
