package main

import (
	"math"

	"icoearth/internal/coupler"
	"icoearth/internal/exec"
	"icoearth/internal/grid"
	"icoearth/internal/land"
	"icoearth/internal/sched"
)

// isolateKernels times the layers under the components with direct calls:
// exec's launch and graph-replay overhead on empty kernels, sched's
// dispatch and reduction over the grid's cell range with empty bodies,
// the grid operators and the two generated dycore kernels. Figures are
// per call or per element; bytes are not reported here because no array
// of these grids reaches the last-level cache's size (README.md).
func isolateKernels(b *bench, es *coupler.EarthSystem, sz sizes) {
	g := es.G
	nlev := es.Atm.State.NLev

	dev := exec.NewDevice(es.GPU.Spec)
	empty := exec.Kernel{Name: "empty", Run: func() {}}
	b.set("exec.launch_overhead_ns", nsPerCall(sz.micro, func() { dev.Launch(empty) }))
	const graphKernels = 64 // the size of the land graph
	dev.BeginCapture()
	for i := 0; i < graphKernels; i++ {
		dev.Launch(empty)
	}
	if graph, err := dev.EndCapture(); err != nil {
		b.fail("capturing the empty graph: %v", err)
	} else {
		b.set("exec.replay_overhead_ns_per_kernel", nsPerCall(sz.micro/50+1, graph.Replay)/graphKernels)
	}

	isolateSched(b, g.NCells, sz)

	b.set("grid.build_ms", median(msEach(3, func() { grid.New(es.Cfg.Res) })))
	un, div := make([]float64, g.NEdges), make([]float64, g.NCells)
	psi, grad, lap := make([]float64, g.NCells), make([]float64, g.NEdges), make([]float64, g.NCells)
	psiLev, lapLev := make([]float64, g.NCells*nlev), make([]float64, g.NCells*nlev)
	for i := range un {
		un[i] = math.Sin(float64(i) * 0.7)
	}
	for i := range psi {
		psi[i] = math.Cos(float64(i) * 0.3)
	}
	for i := range psiLev {
		psiLev[i] = math.Sin(float64(i)*0.11 + 1)
	}
	reps := sz.micro/100 + 1
	cells, edges := float64(g.NCells), float64(g.NEdges)
	b.set("grid.divergence_ns_per_cell", nsPerCall(reps, func() { g.Divergence(un, div) })/cells)
	b.set("grid.gradient_ns_per_edge", nsPerCall(reps, func() { g.Gradient(psi, grad) })/edges)
	b.set("grid.laplacian_ns_per_cell", nsPerCall(reps, func() { g.Laplacian(psi, lap) })/cells)
	b.set("grid.laplacian_levels_ns_per_cell_level",
		nsPerCall(reps/4+1, func() { g.LaplacianLevels(psiLev, lapLev, nlev) })/(cells*float64(nlev)))
	dyn := es.Atm.Dyn
	b.set("gen.ke_vn_ns_per_cell_level", nsPerCall(reps/4+1, dyn.KineticEnergyKernel)/(cells*float64(nlev)))
	b.set("gen.perot_vt_ns_per_edge_level", nsPerCall(reps/4+1, dyn.TangentialKernel)/(edges*float64(nlev)))
}

// isolateSched times the worker pool over an index range of n elements
// with bodies that do nothing: what is left is dispatch and fold.
func isolateSched(b *bench, n int, sz sizes) {
	noop := func(lo, hi int) {}
	zero := func(lo, hi int) float64 { return 0 }
	b.set("sched.workers", float64(sched.Workers()))
	b.set("sched.blocks_per_dispatch", float64(sched.NumBlocks(n)))
	b.set("sched.dispatch_ns", nsPerCall(sz.micro/5+1, func() { sched.Run(n, noop) }))
	b.set("sched.reduce_ns", nsPerCall(sz.micro/5+1, func() { sched.ReduceSum(n, zero) }))
}

// landForcing is the constant forcing of land's whole-step isolation call.
func landForcing(es *coupler.EarthSystem) *land.Forcing {
	f := land.NewForcing(es.Land.State.NLand())
	for i := range f.TAir {
		f.SWDown[i], f.TAir[i] = 200, 285
	}
	return f
}
