package ocean

import (
	"math"
	"runtime"
	"testing"

	"icoearth/internal/grid"
	"icoearth/internal/par"
	"icoearth/internal/sched"
	"icoearth/internal/vertical"
)

func benchOcean(lev, nlev int) (*State, *Dynamics, *Forcing) {
	g := grid.New(grid.R2B(lev))
	mask := grid.NewMask(g)
	vert := vertical.NewOcean(nlev, 4000, 50)
	s := NewState(g, mask, vert)
	s.InitAnalytic()
	dyn := NewDynamics(s, 600)
	f := NewForcing(s.NOcean())
	for i := range f.WindStress {
		lat, _ := g.CellCenter[s.Cells[i]].LatLon()
		f.WindStress[i] = 0.1 * math.Cos(2*lat)
	}
	return s, dyn, f
}

func BenchmarkOceanStepR2B3(b *testing.B) {
	s, dyn, f := benchOcean(3, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dyn.Step(600, f); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.CheckFinite(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkBarotropicCG(b *testing.B) {
	s, _, _ := benchOcean(3, 8)
	op := NewBarotropicOp(s, 600)
	rhs := make([]float64, s.NOcean())
	for i := range rhs {
		rhs[i] = math.Sin(float64(i) * 0.013)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eta := make([]float64, s.NOcean())
		if _, err := op.Solve(rhs, eta, 1e-8, 4000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistSolve is the benchmark's dist_cg shape on live goroutine
// ranks: R2B5, two aligned ranks over one par.World, b.N solves of one
// system on each (the pool at the benchmark's width, min(nproc, 4)).
func BenchmarkDistSolve(b *testing.B) {
	s, _, _ := benchOcean(5, 8)
	sched.SetWorkers(min(runtime.NumCPU(), 4))
	defer sched.SetWorkers(0)
	rhs := make([]float64, s.NOcean())
	for i := range rhs {
		rhs[i] = math.Sin(float64(i) * 0.013)
	}
	d := alignedDecomposition(b, s, 2)
	par.NewWorld(2).Run(func(c *par.Comm) {
		db, err := NewDistBarotropic(s, 600, d, c)
		if err != nil {
			b.Error(err)
			return
		}
		eta := make([]float64, s.NOcean())
		c.Barrier()
		if c.Rank == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			clear(eta)
			if _, err := db.Solve(rhs, eta, 1e-8, 4000); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// benchTracers builds n smooth tracer fields over an ocean that has taken
// one step, so the stored mass fluxes are live.
func benchTracers(b *testing.B, n int) (*Dynamics, [][]float64) {
	s, dyn, f := benchOcean(3, 16)
	if err := dyn.Step(600, f); err != nil {
		b.Fatal(err)
	}
	qs := make([][]float64, n)
	for t := range qs {
		qs[t] = make([]float64, s.NOcean()*s.NLev)
		for i := range qs[t] {
			qs[t][i] = 1 + math.Sin(float64(i)*0.01+float64(t))
		}
	}
	b.SetBytes(int64(8 * len(qs[0]) * 2 * n))
	b.ResetTimer()
	return dyn, qs
}

func BenchmarkTracerAdvection(b *testing.B) {
	dyn, qs := benchTracers(b, 1)
	for i := 0; i < b.N; i++ {
		dyn.AdvectTracer(qs[0], 600)
	}
}

// BenchmarkTracerAdvection19 is the BGC shape: all 19 fields in one grouped
// sweep.
func BenchmarkTracerAdvection19(b *testing.B) {
	dyn, qs := benchTracers(b, 19)
	for i := 0; i < b.N; i++ {
		dyn.AdvectTracers(qs, 600)
	}
}
