package par

import (
	"math"
	"testing"
	"time"

	"icoearth/internal/grid"
)

// TestFoldSumSteadyStateAllocs pins what makes the message-based
// collectives cost nothing: a fold, single or paired, allocates nothing on
// either rank (the partials are lent, the answers travel in the root's
// foldOut), nor does an allgather (blocks lent up, the assembled vector lent
// back and acknowledged) or a halo exchange (packed into the form's two
// alternating buffers, handed over by reference). Under a deadline the
// figures are the same:
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
		full := make([]float64, 2*len(parts))
		fields := [][]float64{field}
		var sums [2]float64
		ops := []struct {
			name string
			f    func()
		}{
			{"FoldSum", func() { c.FoldSum(parts) }},
			{"FoldSums", func() { c.FoldSums(parts, sums[:]) }},
			{"Allgather", func() { c.Allgather(parts, full) }},
			{"Exchange", func() {
				if err := h.Exchange(field, 1); err != nil {
					t.Error(err)
				}
			}},
			{"Start/Finish", func() {
				if err := h.Start(fields, 1).Finish(); err != nil {
					t.Error(err)
				}
			}},
		}
		for _, op := range ops {
			op.f() // sizes the answer buffer, the pack buffers, the timer
			if c.Rank != 0 {
				// AllocsPerRun calls its function once to warm up, then runs times.
				for i := 0; i < runs+1; i++ {
					op.f()
				}
				continue
			}
			if n := testing.AllocsPerRun(runs, op.f); n != 0 {
				t.Errorf("deadline %v: %s allocates %v times per call over both ranks, want 0", deadline, op.name, n)
			}
		}
	})
}

// TestLentBuffersStress: the folds and AllreduceVec lend a peer's input to
// the root instead of copying it, a fold's answers reuse one buffer on the
// root, the allgather lends blocks up and the assembled vector back, and a
// halo exchange packs into buffers it packs again two rounds on. Every
// rank rewrites its inputs — and the gathered vector — immediately after
// each call returns (and between a halo Start and its Finish); if a lent
// buffer could still be read then, the race detector sees it and the bits
// go wrong. Each result must equal the serial rank-order fold, the
// rank-order concatenation, the owner's value, bit for bit.
func TestLentBuffersStress(t *testing.T) {
	const n, rounds, width = 4, 2000, 5
	input := func(rank, round, i int) float64 {
		return math.Sin(float64(rank*7919+round*31+i)) * math.Exp(float64((rank+round+i)%9))
	}
	d, err := grid.Decompose(grid.New(grid.R2B(1)), n)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(n)
	w.SetDeadline(5 * time.Second) // a rank that bails out must not hang the rest
	w.Run(func(c *Comm) {
		parts := make([]float64, width+c.Rank) // ragged, as FoldSum allows
		pair := make([]float64, 2*(width+c.Rank))
		vec := make([]float64, width)
		full := make([]float64, n*width+n*(n-1)/2)
		p := d.Parts[c.Rank]
		h := c.haloOrFatal(t, p)
		fields := [][]float64{make([]float64, len(p.Owner)+len(p.HaloCells))}
		haloRound := func(round int, exchange func() error) bool {
			for li, gc := range p.Owner {
				fields[0][li] = input(c.Rank, round, gc)
			}
			if err := exchange(); err != nil {
				t.Errorf("rank %d round %d: %v", c.Rank, round, err)
				return false
			}
			for _, gc := range p.HaloCells {
				if got, want := fields[0][p.LocalIndex[gc]], input(d.CellOwner[gc], round, gc); got != want {
					t.Errorf("rank %d round %d: halo cell %d = %x, its owner packed %x", c.Rank, round, gc, got, want)
					return false
				}
			}
			return true
		}
		for round := 0; round < rounds; round++ {
			for i := range parts {
				parts[i] = input(c.Rank, round, i)
				pair[i], pair[len(parts)+i] = input(c.Rank, round, i+200), input(c.Rank, round, i+300)
			}
			for i := range vec {
				vec[i] = input(c.Rank, round, i+100)
			}
			var wantFold float64
			var wantPair [2]float64
			var wantFull []float64
			wantVec := make([]float64, width)
			for r := 0; r < n; r++ {
				for i := 0; i < width+r; i++ {
					wantFold += input(r, round, i)
					wantPair[0] += input(r, round, i+200)
					wantFull = append(wantFull, input(r, round, i))
				}
				for i := 0; i < width+r; i++ {
					wantPair[1] += input(r, round, i+300)
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
			var gotPair [2]float64
			c.FoldSums(pair, gotPair[:])
			gotVec := c.AllreduceVec(OpSum, vec)
			c.Allgather(parts, full)
			if math.Float64bits(gotFold) != math.Float64bits(wantFold) {
				t.Errorf("rank %d round %d: FoldSum = %x, serial fold = %x", c.Rank, round, gotFold, wantFold)
				return
			}
			if gotPair != wantPair {
				t.Errorf("rank %d round %d: FoldSums = %x, serial folds = %x", c.Rank, round, gotPair, wantPair)
				return
			}
			for i := range wantVec {
				if math.Float64bits(gotVec[i]) != math.Float64bits(wantVec[i]) {
					t.Errorf("rank %d round %d: AllreduceVec[%d] = %x, serial fold = %x", c.Rank, round, i, gotVec[i], wantVec[i])
					return
				}
			}
			for i := range wantFull {
				if full[i] != wantFull[i] {
					t.Errorf("rank %d round %d: Allgather[%d] = %x, rank-order concatenation has %x", c.Rank, round, i, full[i], wantFull[i])
					return
				}
			}
			gotVec[0] = math.NaN() // the result is this rank's own
			full[0] = math.NaN()   // and so is the gathered vector, on the root too
			// Back to back, nothing between them that would synchronise the
			// ranks: a peer may still be reading one round's buffer while
			// this rank packs the next.
			for rep := 0; rep < 3; rep++ {
				if !haloRound(3*round+rep, func() error { return h.Exchange(fields[0], 1) }) {
					return
				}
			}
			for rep := 0; rep < 3; rep++ {
				if !haloRound(3*round+rep, func() error {
					op := h.Start(fields, 1)
					clear(fields[0][:len(p.Owner)]) // owned cells are the caller's again once packed
					return op.Finish()
				}) {
					return
				}
			}
		}
	})
}

// TestHaloBuffersUnderDelayHook: a DelayMsg verdict parks a packed halo
// buffer until the next send on the pair, so the peer reads round k's
// buffer a round late — while this rank would be packing round k+2 into it
// had it kept it. Under a hook every round therefore packs a buffer it
// gives up; the race detector holds that, the values (each from the right
// cell of the owner, in this round or the one the reorder swapped it with)
// and the accounting the rest.
func TestHaloBuffersUnderDelayHook(t *testing.T) {
	const n, rounds = 4, 300
	d, err := grid.Decompose(grid.New(grid.R2B(1)), n)
	if err != nil {
		t.Fatal(err)
	}
	var sent [n][n]int // [from][to], touched by rank from only
	w := NewWorld(n)
	w.SetDeadline(5 * time.Second)
	w.SetMsgHook(func(from, to, tag, _ int) MsgFate {
		sent[from][to]++
		// Upwards only — two ranks parking their buffers for each other
		// would both wait — and never the last: nothing would flush it.
		if k := sent[from][to]; from < to && k%3 == 1 && k < rounds {
			return DelayMsg
		}
		return DeliverMsg
	})
	w.Run(func(c *Comm) {
		p := d.Parts[c.Rank]
		h := c.haloOrFatal(t, p)
		field := make([]float64, len(p.Owner)+len(p.HaloCells))
		for round := 0; round < rounds; round++ {
			for li, gc := range p.Owner {
				field[li] = float64(1000*round + gc)
			}
			if err := h.Exchange(field, 1); err != nil {
				t.Errorf("rank %d round %d: %v", c.Rank, round, err)
				return
			}
			for _, gc := range p.HaloCells {
				got := field[p.LocalIndex[gc]]
				if r := (int(got) - gc) / 1000; int(got)%1000 != gc || r < round-1 || r > round+1 {
					t.Errorf("rank %d round %d: halo cell %d = %v", c.Rank, round, gc, got)
					return
				}
			}
		}
	})
	if st := w.TotalStats(); st.Delayed != 0 || st.Dropped != 0 || st.Msgs != st.Delivered {
		t.Errorf("stats after the run: %+v, want every parked buffer flushed and delivered", st)
	}
}
