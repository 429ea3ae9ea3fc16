package par

import (
	"math"
	"sync/atomic"
	"testing"

	"icoearth/internal/grid"
)

func TestSendRecv(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			got := c.Recv(0, 7)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				t.Errorf("recv = %v", got)
			}
		}
	})
}

func TestSendCopiesData(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank == 0 {
			buf := []float64{42}
			c.Send(1, 0, buf)
			buf[0] = -1 // must not affect the message
			c.Barrier()
		} else {
			got := c.Recv(0, 0)
			c.Barrier()
			if got[0] != 42 {
				t.Errorf("message mutated: %v", got[0])
			}
		}
	})
}

func TestTagMatching(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank == 0 {
			c.Send(1, 1, []float64{1})
			c.Send(1, 2, []float64{2})
			c.Send(1, 3, []float64{3})
		} else {
			// Receive out of order: tags must match regardless.
			if got := c.Recv(0, 3); got[0] != 3 {
				t.Errorf("tag 3 = %v", got)
			}
			if got := c.Recv(0, 1); got[0] != 1 {
				t.Errorf("tag 1 = %v", got)
			}
			if got := c.Recv(0, 2); got[0] != 2 {
				t.Errorf("tag 2 = %v", got)
			}
		}
	})
}

func TestBarrierOrdering(t *testing.T) {
	const n = 8
	w := NewWorld(n)
	var before, after int64
	w.Run(func(c *Comm) {
		atomic.AddInt64(&before, 1)
		c.Barrier()
		if atomic.LoadInt64(&before) != n {
			t.Errorf("rank %d passed barrier before all arrived", c.Rank)
		}
		atomic.AddInt64(&after, 1)
	})
	if after != n {
		t.Errorf("after = %d", after)
	}
}

func TestAllreduceSum(t *testing.T) {
	const n = 7
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		got := c.AllreduceSum(float64(c.Rank + 1))
		want := float64(n * (n + 1) / 2)
		if got != want {
			t.Errorf("rank %d: sum = %v want %v", c.Rank, got, want)
		}
	})
}

func TestAllreduceMaxMin(t *testing.T) {
	const n = 5
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		if got := c.AllreduceMax(float64(c.Rank)); got != n-1 {
			t.Errorf("max = %v", got)
		}
		v := c.AllreduceVec(OpMin, []float64{float64(c.Rank), float64(-c.Rank)})
		if v[0] != 0 || v[1] != -(n-1) {
			t.Errorf("min vec = %v", v)
		}
	})
}

func TestAllreduceVecRepeated(t *testing.T) {
	const n = 4
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		for iter := 0; iter < 50; iter++ {
			got := c.AllreduceVec(OpSum, []float64{1, float64(iter)})
			if got[0] != n || got[1] != float64(n*iter) {
				t.Errorf("iter %d: %v", iter, got)
				return
			}
		}
	})
}

func TestGather(t *testing.T) {
	const n = 4
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		data := make([]float64, c.Rank+1) // ragged
		for i := range data {
			data[i] = float64(c.Rank)
		}
		out := c.Gather(2, data)
		if c.Rank != 2 {
			if out != nil {
				t.Errorf("non-root got %v", out)
			}
			return
		}
		for r := 0; r < n; r++ {
			if len(out[r]) != r+1 {
				t.Errorf("root: rank %d len = %d", r, len(out[r]))
			}
			for _, v := range out[r] {
				if v != float64(r) {
					t.Errorf("root: rank %d data %v", r, out[r])
				}
			}
		}
	})
}

// TestAllgather: ragged blocks land in ascending rank order in every
// rank's full, and full is the caller's to rewrite as soon as the call
// returns — on the root too, which lends it to its peers.
func TestAllgather(t *testing.T) {
	const n = 6
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		own := make([]float64, c.Rank+1) // ragged
		full := make([]float64, n*(n+1)/2)
		for round := 0; round < 50; round++ {
			for i := range own {
				own[i] = float64(100*round + c.Rank)
			}
			c.Allgather(own, full)
			i := 0
			for r := 0; r < n; r++ {
				for k := 0; k <= r; k++ {
					if full[i] != float64(100*round+r) {
						t.Errorf("rank %d round %d: full[%d] = %v, want rank %d's block", c.Rank, round, i, full[i], r)
						return
					}
					i++
				}
			}
			clear(full)
		}
	})
}

func TestStatsAccounting(t *testing.T) {
	w := NewWorld(2)
	stats := make([]Stats, 2)
	w.Run(func(c *Comm) {
		if c.Rank == 0 {
			c.Send(1, 0, make([]float64, 100))
		} else {
			c.Recv(0, 0)
		}
		c.Barrier()
		stats[c.Rank] = c.Stats
	})
	if stats[0].Msgs != 1 || stats[0].BytesSent != 800 {
		t.Errorf("rank0 stats = %+v", stats[0])
	}
	if stats[0].Collectives != 1 || stats[1].Collectives != 1 {
		t.Errorf("collective counts: %+v %+v", stats[0], stats[1])
	}
}

func TestWorldPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank == 1 {
			panic("boom")
		}
	})
}

func TestHaloExchange(t *testing.T) {
	g := grid.New(grid.R2B(2))
	const nranks = 6
	d, err := grid.Decompose(g, nranks)
	if err != nil {
		t.Fatal(err)
	}
	const nlev = 3
	w := NewWorld(nranks)
	w.Run(func(c *Comm) {
		p := d.Parts[c.Rank]
		n := len(p.Owner) + len(p.HaloCells)
		field := make([]float64, n*nlev)
		// Owned values encode the global cell id and level.
		for i, gc := range p.Owner {
			for k := 0; k < nlev; k++ {
				field[i*nlev+k] = float64(gc*10 + k)
			}
		}
		h, err := NewHaloExchanger(c, p)
		if err != nil {
			t.Error(err)
			return
		}
		if err := h.Exchange(field, nlev); err != nil {
			t.Error(err)
			return
		}
		// Halo values must now equal their owners' encodings.
		for _, gc := range p.HaloCells {
			li := p.LocalIndex[gc]
			for k := 0; k < nlev; k++ {
				want := float64(gc*10 + k)
				if field[li*nlev+k] != want {
					t.Errorf("rank %d: halo cell %d level %d = %v want %v",
						c.Rank, gc, k, field[li*nlev+k], want)
					return
				}
			}
		}
	})
}

func TestHaloExchangeMany(t *testing.T) {
	g := grid.New(grid.R2B(2))
	const nranks = 4
	d, _ := grid.Decompose(g, nranks)
	const nlev = 2
	w := NewWorld(nranks)
	w.Run(func(c *Comm) {
		p := d.Parts[c.Rank]
		n := len(p.Owner) + len(p.HaloCells)
		f1 := make([]float64, n*nlev)
		f2 := make([]float64, n*nlev)
		for i, gc := range p.Owner {
			for k := 0; k < nlev; k++ {
				f1[i*nlev+k] = float64(gc)
				f2[i*nlev+k] = -float64(gc)
			}
		}
		h, err := NewHaloExchanger(c, p)
		if err != nil {
			t.Error(err)
			return
		}
		if err := h.ExchangeMany([][]float64{f1, f2}, nlev); err != nil {
			t.Error(err)
			return
		}
		for _, gc := range p.HaloCells {
			li := p.LocalIndex[gc]
			if f1[li*nlev] != float64(gc) || f2[li*nlev] != -float64(gc) {
				t.Errorf("rank %d: halo cell %d = %v/%v", c.Rank, gc, f1[li*nlev], f2[li*nlev])
				return
			}
		}
	})
}

// TestHaloExchangeRepeated: exchanges are reusable and deterministic.
func TestHaloExchangeRepeated(t *testing.T) {
	g := grid.New(grid.R2B(1))
	const nranks = 3
	d, _ := grid.Decompose(g, nranks)
	w := NewWorld(nranks)
	w.Run(func(c *Comm) {
		p := d.Parts[c.Rank]
		n := len(p.Owner) + len(p.HaloCells)
		field := make([]float64, n)
		h, err := NewHaloExchanger(c, p)
		if err != nil {
			t.Error(err)
			return
		}
		for iter := 0; iter < 20; iter++ {
			for i, gc := range p.Owner {
				field[i] = float64(gc * (iter + 1))
			}
			if err := h.Exchange(field, 1); err != nil {
				t.Error(err)
				return
			}
			for _, gc := range p.HaloCells {
				if field[p.LocalIndex[gc]] != float64(gc*(iter+1)) {
					t.Errorf("iter %d rank %d: halo stale", iter, c.Rank)
					return
				}
			}
		}
	})
}

func TestAllreduceAssociativeSum(t *testing.T) {
	// Distributed dot product equals serial dot product to floating
	// precision: the pattern used by the ocean CG solver.
	g := grid.New(grid.R2B(2))
	x := make([]float64, g.NCells)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	var serial float64
	for _, v := range x {
		serial += v * v
	}
	const nranks = 5
	d, _ := grid.Decompose(g, nranks)
	w := NewWorld(nranks)
	w.Run(func(c *Comm) {
		var local float64
		for _, gc := range d.Parts[c.Rank].Owner {
			local += x[gc] * x[gc]
		}
		got := c.AllreduceSum(local)
		if math.Abs(got-serial) > 1e-9*math.Abs(serial) {
			t.Errorf("rank %d: dot = %v want %v", c.Rank, got, serial)
		}
	})
}
