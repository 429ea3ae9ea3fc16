package ocean

import (
	"fmt"
	"math"
	"sort"

	"icoearth/internal/grid"
	"icoearth/internal/par"
	"icoearth/internal/sched"
)

// BarotropicOp is the matrix-free operator of the semi-implicit free
// surface: Ã(η)_i = A_i·η_i + g·Δt²·Σ_e l_e·H_e·(η_i − η_j)/d_e, the
// symmetric positive-definite system that filters fast surface gravity
// waves (the "tightly-coupled 2d-equation-system" of §5.1).
type BarotropicOp struct {
	S  *State
	Dt float64
	// coefficient per compact ocean edge: g·Δt²·l_e·H_e/d_e.
	coef []float64
	// diag is the assembled diagonal, used by the Jacobi preconditioner.
	diag []float64
	// refs/refStart are the CSR form of each cell's edge incidence:
	// refs[refStart[i]:refStart[i+1]] lists cell i's compact edges in
	// ascending order, encoded ei<<1|side (side 1 = the cell is
	// EdgeCells[ei][1], i.e. the flux enters with a minus sign).
	// Gather-form Apply folds these in the same order the former edge
	// scatter arrived, so results are bit-identical to the serial
	// scatter at any worker count.
	refs     []int32
	refStart []int32
	// eflux holds both signs of the per-edge flux of the current Apply:
	// eflux[2e] = f_e, eflux[2e+1] = -f_e. Each flux is computed once per
	// edge (edge-parallel, same flux-count as the serial scatter) and the
	// cell gather indexes it directly with the encoded ref — branch-free,
	// and bit-identical because adding -f equals subtracting f exactly.
	eflux []float64

	// CG scratch (lazily sized) and pre-bound worker-pool bodies; per-call
	// parameters pass through fields so dispatch is allocation-free.
	r, z, p, ap        []float64
	applyX, applyOut   []float64
	dotA, dotB         []float64
	solveRhs, solveEta []float64
	alpha, beta        float64
	parApplyEdge       func(lo, hi int)
	parApplyCell       func(lo, hi int)
	parDot             func(lo, hi int) float64
	// Fused sweep+reduction bodies: each elementwise CG sweep also
	// returns its block's partial of the dot product the iteration needs
	// next, so the solve keeps the memory-pass count of the fused serial
	// loops it replaced. Writes are block-disjoint and the partials fold
	// in fixed block order — bit-identical at every width.
	parApplyPap   func(lo, hi int) float64
	parResidNorm  func(lo, hi int) float64
	parPrecondRz  func(lo, hi int) float64
	parUpdateNorm func(lo, hi int) float64
	parZRz        func(lo, hi int) float64
	parP          func(lo, hi int)
}

// NewBarotropicOp assembles edge coefficients for timestep dt.
func NewBarotropicOp(s *State, dt float64) *BarotropicOp {
	op := &BarotropicOp{S: s, Dt: dt}
	op.coef = make([]float64, len(s.Edges))
	op.eflux = make([]float64, 2*len(s.Edges))
	op.diag = make([]float64, len(s.Cells))
	op.refStart = make([]int32, len(s.Cells)+1)
	for i, c := range s.Cells {
		op.diag[i] = s.G.CellArea[c]
	}
	for ei := range s.Edges {
		c0, c1 := s.EdgeCells[ei][0], s.EdgeCells[ei][1]
		h := 0.5 * (s.Depth[c0] + s.Depth[c1])
		op.coef[ei] = GravO * dt * dt * s.G.EdgeLength[s.Edges[ei]] * h / s.G.DualLength[s.Edges[ei]]
		op.diag[c0] += op.coef[ei]
		op.diag[c1] += op.coef[ei]
		op.refStart[c0+1]++
		op.refStart[c1+1]++
	}
	for i := 0; i < len(s.Cells); i++ {
		op.refStart[i+1] += op.refStart[i]
	}
	op.refs = make([]int32, op.refStart[len(s.Cells)])
	cursor := append([]int32(nil), op.refStart[:len(s.Cells)]...)
	// Filling in ascending ei keeps each cell's refs in edge-scatter
	// arrival order — the fold-order invariant behind bit-identity.
	for ei := range s.Edges {
		c0, c1 := s.EdgeCells[ei][0], s.EdgeCells[ei][1]
		op.refs[cursor[c0]] = int32(ei) << 1
		cursor[c0]++
		op.refs[cursor[c1]] = int32(ei)<<1 | 1
		cursor[c1]++
	}
	op.bindKernels()
	return op
}

// Apply computes out = Ã(eta). At width 1 it runs the serial edge
// scatter (cheapest single pass structure); with a parallel pool it runs
// two pool passes — per-edge fluxes into the eflux scratch (each flux
// computed exactly once), then a per-cell gather that folds them in
// edge-scatter arrival order. The gather's fold order reproduces the
// scatter's arrival order term by term, so both paths are bit-identical.
func (op *BarotropicOp) Apply(eta, out []float64) {
	if sched.Workers() <= 1 {
		op.scatterApply(eta, out)
		return
	}
	op.applyX, op.applyOut = eta, out
	sched.Run(len(op.S.Edges), op.parApplyEdge)
	sched.Run(len(op.S.Cells), op.parApplyCell)
	op.applyX, op.applyOut = nil, nil
}

// scatterApply is the serial edge-scatter form of Apply.
func (op *BarotropicOp) scatterApply(eta, out []float64) {
	s := op.S
	for i, c := range s.Cells {
		out[i] = s.G.CellArea[c] * eta[i]
	}
	for ei := range s.Edges {
		c0, c1 := s.EdgeCells[ei][0], s.EdgeCells[ei][1]
		f := op.coef[ei] * (eta[c0] - eta[c1])
		out[c0] += f
		out[c1] -= f
	}
}

// applyPap computes ap = Ã(applyX) and returns the blocked deterministic
// dot ⟨applyX, ap⟩. With a parallel pool the dot partials fuse into the
// gather pass; at width 1 the scatter runs first and the dot is the same
// blocked fold over the stored result — identical per-block sums either
// way, so the CG trajectory does not depend on the path taken.
func (op *BarotropicOp) applyPap() float64 {
	n := len(op.applyX)
	if sched.Workers() > 1 {
		sched.Run(len(op.S.Edges), op.parApplyEdge)
		return sched.ReduceSum(n, op.parApplyPap)
	}
	op.scatterApply(op.applyX, op.applyOut)
	op.dotA, op.dotB = op.applyX, op.applyOut
	v := sched.ReduceSum(n, op.parDot)
	op.dotA, op.dotB = nil, nil
	return v
}

// dot computes a deterministic blocked dot product of a and b.
func (op *BarotropicOp) dot(a, b []float64) float64 {
	op.dotA, op.dotB = a, b
	v := sched.ReduceSum(len(a), op.parDot)
	op.dotA, op.dotB = nil, nil
	return v
}

// SolveStats reports the work of one elliptic solve; the performance model
// converts Iterations into allreduce counts: 2·Iterations + 2, which is what
// DistCG performs (⟨p,Ap⟩, then ‖r‖² and ⟨r,z⟩ in one paired fold, per
// iteration; ‖rhs‖² and the first ⟨r,z⟩ at set-up).
type SolveStats struct {
	Iterations int
	Residual   float64
}

// Solve runs Jacobi-preconditioned conjugate gradients for Ã·eta = rhs,
// starting from the current eta, until the 2-norm of the residual drops
// below tol relative to the rhs norm. It returns the iteration count.
// Each elementwise sweep is fused with the dot product the iteration needs
// next into one cell-parallel blocked reduction, so the iteration
// trajectory — and therefore the solution — is bit-identical at every
// worker count while each vector is read exactly once per sweep.
func (op *BarotropicOp) Solve(rhs, eta []float64, tol float64, maxIter int) (SolveStats, error) {
	n := len(eta)
	if len(op.r) < n {
		op.r = make([]float64, n)
		op.z = make([]float64, n)
		op.p = make([]float64, n)
		op.ap = make([]float64, n)
	}
	op.solveRhs, op.solveEta = rhs, eta
	defer func() {
		op.solveRhs, op.solveEta = nil, nil
		op.applyX, op.applyOut = nil, nil
	}()

	op.Apply(eta, op.ap[:n])
	rhsNorm := math.Sqrt(sched.ReduceSum(n, op.parResidNorm))
	if rhsNorm == 0 {
		for i := range eta {
			eta[i] = 0
		}
		return SolveStats{}, nil
	}
	rz := sched.ReduceSum(n, op.parPrecondRz)
	op.applyX, op.applyOut = op.p[:n], op.ap[:n]
	for iter := 1; iter <= maxIter; iter++ {
		pap := op.applyPap()
		op.alpha = rz / pap
		rnorm := math.Sqrt(sched.ReduceSum(n, op.parUpdateNorm))
		if rnorm < tol*rhsNorm {
			return SolveStats{Iterations: iter, Residual: rnorm / rhsNorm}, nil
		}
		rzNew := sched.ReduceSum(n, op.parZRz)
		op.beta = rzNew / rz
		rz = rzNew
		sched.Run(n, op.parP)
	}
	return SolveStats{Iterations: maxIter, Residual: -1},
		fmt.Errorf("ocean: CG did not converge in %d iterations", maxIter)
}

// bindKernels builds the worker-pool loop bodies of the operator once.
func (op *BarotropicOp) bindKernels() {
	op.parApplyEdge = func(lo, hi int) {
		edgeCells := op.S.EdgeCells
		eta, eflux, coef := op.applyX, op.eflux, op.coef
		for ei := lo; ei < hi; ei++ {
			c0, c1 := edgeCells[ei][0], edgeCells[ei][1]
			f := coef[ei] * (eta[c0] - eta[c1])
			eflux[2*ei] = f
			eflux[2*ei+1] = -f
		}
	}
	op.parApplyCell = func(lo, hi int) {
		s := op.S
		area, cells := s.G.CellArea, s.Cells
		eta, out := op.applyX, op.applyOut
		refs, refStart, eflux := op.refs, op.refStart, op.eflux
		for i := lo; i < hi; i++ {
			v := area[cells[i]] * eta[i]
			for _, ref := range refs[refStart[i]:refStart[i+1]] {
				v += eflux[ref]
			}
			out[i] = v
		}
	}
	op.parDot = func(lo, hi int) float64 {
		a, b := op.dotA, op.dotB
		var s float64
		for i := lo; i < hi; i++ {
			s += a[i] * b[i]
		}
		return s
	}
	op.parApplyPap = func(lo, hi int) float64 {
		s := op.S
		area, cells := s.G.CellArea, s.Cells
		x, out := op.applyX, op.applyOut
		refs, refStart, eflux := op.refs, op.refStart, op.eflux
		var acc float64
		for i := lo; i < hi; i++ {
			v := area[cells[i]] * x[i]
			for _, ref := range refs[refStart[i]:refStart[i+1]] {
				v += eflux[ref]
			}
			out[i] = v
			acc += x[i] * v
		}
		return acc
	}
	op.parResidNorm = func(lo, hi int) float64 {
		r, ap, rhs := op.r, op.ap, op.solveRhs
		var acc float64
		for i := lo; i < hi; i++ {
			r[i] = rhs[i] - ap[i]
			acc += rhs[i] * rhs[i]
		}
		return acc
	}
	op.parPrecondRz = func(lo, hi int) float64 {
		r, z, p, diag := op.r, op.z, op.p, op.diag
		var acc float64
		for i := lo; i < hi; i++ {
			z[i] = r[i] / diag[i]
			p[i] = z[i]
			acc += r[i] * z[i]
		}
		return acc
	}
	op.parUpdateNorm = func(lo, hi int) float64 {
		eta, r, p, ap, alpha := op.solveEta, op.r, op.p, op.ap, op.alpha
		var acc float64
		for i := lo; i < hi; i++ {
			eta[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
			acc += r[i] * r[i]
		}
		return acc
	}
	op.parZRz = func(lo, hi int) float64 {
		r, z, diag := op.r, op.z, op.diag
		var acc float64
		for i := lo; i < hi; i++ {
			z[i] = r[i] / diag[i]
			acc += r[i] * z[i]
		}
		return acc
	}
	op.parP = func(lo, hi int) {
		z, p, beta := op.z, op.p, op.beta
		for i := lo; i < hi; i++ {
			p[i] = z[i] + beta*p[i]
		}
	}
}

// --- Distributed CG ---------------------------------------------------------

// BarotropicSolver is the seam Dynamics solves the free surface through:
// the serial BarotropicOp satisfies it, and DistBarotropic swaps in the
// rank-distributed solve. rhs and eta are global compact wet vectors.
type BarotropicSolver interface {
	Solve(rhs, eta []float64, tol float64, maxIter int) (SolveStats, error)
}

// DistCG solves the same barotropic system with the wet cells
// distributed over the ranks of a grid decomposition: each CG dot
// product is a global reduction and each operator application a halo
// exchange — exactly the communication pattern that makes the ocean's
// 2-D solver the scaling bottleneck at high superchip counts (§7).
//
// The solve is bit-identical to the serial BarotropicOp when the
// decomposition comes from AlignedCuts, by three invariants:
//
//   - Every dot product is the serial blocked reduction, distributed.
//     Blocks use the global block size sched.BlockSize(nWet); aligned
//     cuts start every rank's owned wet range on a block boundary, so
//     each rank's partials are exactly the serial partials of its
//     blocks, and FoldSum folds the ascending-rank concatenation — the
//     ascending-block serial order — sequentially.
//   - The apply folds each owned cell's edge terms in ascending compact
//     edge order (the serial gather's arrival order), each flux being the
//     serial coef·(x[c0]−x[c1]) with the far side's minus sign folded into
//     the stored coefficient: (−c)·d ≡ −(c·d) and v−f ≡ v+(−f) exactly in
//     IEEE-754, zeros included.
//   - Elementwise sweeps are local and alpha/beta are ratios of
//     already-identical scalars, so the whole CG trajectory matches.
//
// What is mirrored is every partial list and operand order, not the serial
// loop structure: an iteration is three sweeps (the gather with ⟨p,Ap⟩ fused
// in, the η/r/z update with both its dots, the p update) and two
// collectives, the second a paired fold of ‖r‖² and ⟨r,z⟩ — so z and ⟨r,z⟩
// are also computed on the converged iteration, where nothing reads them.
//
// The halo exchange is overlap-aware: Start posts boundary sends, the
// interior gather (cells whose stencils touch no halo cell) runs through
// the sched pool while messages are in flight, and Finish scatters the
// ghosts before the boundary gather. For decompositions with unaligned
// cuts the solve is still deterministic, just not serial-identical.
type DistCG struct {
	S    *State
	Dt   float64
	D    *grid.Decomposition
	comm *par.Comm
	halo *par.HaloExchanger

	w0, w1  int   // owned global wet-compact range [w0, w1)
	nOwn    int   // w1 - w0
	blk     int   // global reduction block size, sched.BlockSize(nWet)
	nBlk    int   // local reduction blocks
	haloWet []int // halo cells (global wet-compact ids) in local order
	locOf   map[int]int

	area []float64 // CellArea per owned local cell
	diag []float64 // assembled diagonal per owned local cell

	// Edge-term CSR per owned cell, ascending compact-edge order.
	terms    []edgeTerm
	refStart []int32
	// Owned local cells split by halo adjacency, ascending: reduction block
	// j's are list[start[j]:start[j+1]]; mixed lists the blocks with a
	// boundary cell.
	interior, boundary []int32
	intStart, bndStart []int32
	mixed              []int32

	// Solve scratch and pre-bound pool bodies; per-call parameters pass
	// through fields so dispatch is allocation-free.
	r, z, pv, ap  []float64
	solveRhs      []float64
	solveEta      []float64
	x, out        []float64
	partials      []float64 // two lists of nBlk block partials, back to back
	alpha, beta   float64
	parInterior   func(lo, hi int)
	parBoundary   func(lo, hi int)
	parResid      func(lo, hi int)
	parPrecond    func(lo, hi int)
	parUpdate     func(lo, hi int)
	parP          func(lo, hi int)
	hx            [1][]float64
	haloBytesPerX int64

	// Stats.
	Allreduces int
	HaloXchgs  int
	HaloBytes  int64
}

// edgeTerm is an edge's contribution cf·(x[a]−x[b]) to a cell's row: a, b
// are the edge's first and second cell, cf its coefficient, negated when
// the row's cell is the second.
type edgeTerm struct {
	cf   float64
	a, b int32
}

// AlignedCuts returns DecomposeAt cell cuts for nranks such that every
// rank's owned wet cells form a contiguous compact range starting on a
// sched.BlockSize(nWet) reduction-block boundary — the alignment that
// makes the distributed dot products fold the exact serial partials.
// Errors when nranks exceeds the number of reduction blocks.
func AlignedCuts(s *State, nranks int) ([]int, error) {
	n := s.NOcean()
	blk := sched.BlockSize(n)
	nb := (n + blk - 1) / blk
	if nranks < 1 || nranks > nb {
		return nil, fmt.Errorf("ocean: cannot align %d ranks to %d reduction blocks (%d wet cells)", nranks, nb, n)
	}
	cuts := make([]int, nranks)
	for r := 1; r < nranks; r++ {
		cuts[r] = s.Cells[(r*nb/nranks)*blk]
	}
	return cuts, nil
}

// wetOwner returns the rank owning global wet-compact cell gw.
func wetOwner(s *State, d *grid.Decomposition, gw int) int {
	return d.CellOwner[s.Cells[gw]]
}

// NewDistCG builds the distributed solver for one rank. All ranks of the
// decomposition must construct it collectively (the halo exchanger and
// every Solve are collective operations).
func NewDistCG(s *State, dt float64, d *grid.Decomposition, comm *par.Comm) (*DistCG, error) {
	n := s.NOcean()
	dc := &DistCG{S: s, Dt: dt, D: d, comm: comm, blk: sched.BlockSize(n)}
	rank := comm.Rank
	p := d.Parts[rank]
	// Owned wet range: wet cells whose global cell falls in the rank's
	// contiguous cell range. Cells are SFC-ascending, so it is a
	// contiguous compact range.
	first, last := s.G.NCells, -1
	if len(p.Owner) > 0 {
		first, last = p.Owner[0], p.Owner[len(p.Owner)-1]
	}
	dc.w0 = sort.SearchInts(s.Cells, first)
	dc.w1 = sort.SearchInts(s.Cells, last+1)
	dc.nOwn = dc.w1 - dc.w0
	dc.nBlk = (dc.nOwn + dc.blk - 1) / dc.blk

	// The wet sub-partition comes from wet edges crossing rank
	// boundaries: each one puts its local endpoint in Send and its
	// remote endpoint in Halo of the respective ranks, which keeps the
	// pairs symmetric by construction (filtering the cell-level
	// partition to wet cells would not — a wet cell can sit in a Send
	// list purely for a neighbour's land cell).
	sendSet := make(map[int]map[int]bool)
	haloSet := make(map[int]map[int]bool)
	add := func(set map[int]map[int]bool, r, gw int) {
		if set[r] == nil {
			set[r] = make(map[int]bool)
		}
		set[r][gw] = true
	}
	for ei := range s.Edges {
		g0, g1 := s.EdgeCells[ei][0], s.EdgeCells[ei][1]
		r0, r1 := wetOwner(s, d, g0), wetOwner(s, d, g1)
		if r0 == r1 {
			continue
		}
		if r0 == rank {
			add(sendSet, r1, g0)
			add(haloSet, r1, g1)
		} else if r1 == rank {
			add(sendSet, r0, g1)
			add(haloSet, r0, g0)
		}
	}
	wp := &grid.Partition{
		Rank:       rank,
		Halo:       make(map[int][]int),
		Send:       make(map[int][]int),
		LocalIndex: make(map[int]int, dc.nOwn),
	}
	sorted := func(set map[int]bool) []int {
		out := make([]int, 0, len(set))
		for gw := range set {
			out = append(out, gw)
		}
		sort.Ints(out)
		return out
	}
	for r, set := range sendSet {
		wp.Send[r] = sorted(set)
	}
	for r, set := range haloSet {
		wp.Halo[r] = sorted(set)
	}
	dc.locOf = wp.LocalIndex
	for li := 0; li < dc.nOwn; li++ {
		dc.locOf[dc.w0+li] = li
	}
	ranks := make([]int, 0, len(wp.Halo))
	nHalo := 0
	for r, cells := range wp.Halo {
		ranks = append(ranks, r)
		nHalo += len(cells)
	}
	sort.Ints(ranks)
	dc.haloWet = make([]int, nHalo)
	hi := 0
	for _, r := range ranks {
		for _, gw := range wp.Halo[r] {
			dc.locOf[gw] = dc.nOwn + hi
			dc.haloWet[hi] = gw
			hi++
		}
	}
	halo, err := par.NewHaloExchanger(comm, wp)
	if err != nil {
		return nil, err
	}
	dc.halo = halo
	for _, cells := range wp.Send {
		dc.haloBytesPerX += int64(8 * len(cells))
	}
	for _, cells := range wp.Halo {
		dc.haloBytesPerX += int64(8 * len(cells))
	}

	// Edge-term CSR: walk compact edges ascending, appending a ref to
	// each owned endpoint — the same construction as the serial
	// operator's refs, so each cell folds its terms in the identical
	// order. The diagonal accumulates in the same ascending-edge order
	// as NewBarotropicOp for the same reason.
	dc.area = make([]float64, dc.nOwn)
	dc.diag = make([]float64, dc.nOwn)
	for li := 0; li < dc.nOwn; li++ {
		dc.area[li] = s.G.CellArea[s.Cells[dc.w0+li]]
		dc.diag[li] = dc.area[li]
	}
	owned := func(gw int) bool { return gw >= dc.w0 && gw < dc.w1 }
	dc.refStart = make([]int32, dc.nOwn+1)
	for ei := range s.Edges {
		g0, g1 := s.EdgeCells[ei][0], s.EdgeCells[ei][1]
		if owned(g0) {
			dc.refStart[g0-dc.w0+1]++
		}
		if owned(g1) {
			dc.refStart[g1-dc.w0+1]++
		}
	}
	for li := 0; li < dc.nOwn; li++ {
		dc.refStart[li+1] += dc.refStart[li]
	}
	dc.terms = make([]edgeTerm, dc.refStart[dc.nOwn])
	cursor := append([]int32(nil), dc.refStart[:dc.nOwn]...)
	for ei := range s.Edges {
		g0, g1 := s.EdgeCells[ei][0], s.EdgeCells[ei][1]
		if !owned(g0) && !owned(g1) {
			continue
		}
		h := 0.5 * (s.Depth[g0] + s.Depth[g1])
		cf := GravO * dt * dt * s.G.EdgeLength[s.Edges[ei]] * h / s.G.DualLength[s.Edges[ei]]
		put := func(cell int, signed float64) {
			li := cell - dc.w0
			dc.terms[cursor[li]] = edgeTerm{cf: signed, a: int32(dc.locOf[g0]), b: int32(dc.locOf[g1])}
			cursor[li]++
			dc.diag[li] += cf
		}
		if owned(g0) {
			put(g0, cf)
		}
		if owned(g1) {
			put(g1, -cf)
		}
	}

	// Interior/boundary split for the overlap: a cell is interior when
	// none of its edge terms reads a halo cell, so its gather can run
	// while the boundary messages are in flight.
	dc.intStart = make([]int32, dc.nBlk+1)
	dc.bndStart = make([]int32, dc.nBlk+1)
	for li := 0; li < dc.nOwn; li++ {
		inner := true
		for _, t := range dc.terms[dc.refStart[li]:dc.refStart[li+1]] {
			if int(t.a) >= dc.nOwn || int(t.b) >= dc.nOwn {
				inner = false
				break
			}
		}
		if inner {
			dc.interior = append(dc.interior, int32(li))
		} else {
			if j := int32(li / dc.blk); len(dc.mixed) == 0 || dc.mixed[len(dc.mixed)-1] != j {
				dc.mixed = append(dc.mixed, j)
			}
			dc.boundary = append(dc.boundary, int32(li))
		}
		dc.intStart[li/dc.blk+1] = int32(len(dc.interior))
		dc.bndStart[li/dc.blk+1] = int32(len(dc.boundary))
	}

	nloc := dc.nOwn + len(dc.haloWet)
	dc.r = make([]float64, dc.nOwn)
	dc.z = make([]float64, dc.nOwn)
	dc.pv = make([]float64, nloc)
	dc.ap = make([]float64, dc.nOwn)
	dc.partials = make([]float64, 2*dc.nBlk)
	dc.bindKernels()
	return dc, nil
}

// OverlapFrac reports the fraction of owned cells whose gather overlaps
// the halo exchange (the interior share).
func (dc *DistCG) OverlapFrac() float64 {
	if dc.nOwn == 0 {
		return 0
	}
	return float64(len(dc.interior)) / float64(dc.nOwn)
}

// OwnedRange returns the rank's owned global wet-compact range [w0, w1).
func (dc *DistCG) OwnedRange() (int, int) { return dc.w0, dc.w1 }

// gather computes out = Ã(x) on the listed owned cells, ascending, and
// returns Σ x·out over them in that order — a reduction block's ⟨x,Ãx⟩
// partial when the list is the whole block.
func (dc *DistCG) gather(list []int32) float64 {
	x, out, area, terms, refStart := dc.x, dc.out, dc.area, dc.terms, dc.refStart
	var acc float64
	for _, li := range list {
		v := area[li] * x[li]
		if t := terms[refStart[li]:refStart[li+1]]; len(t) == 3 {
			v += t[0].cf * (x[t[0].a] - x[t[0].b])
			v += t[1].cf * (x[t[1].a] - x[t[1].b])
			v += t[2].cf * (x[t[2].a] - x[t[2].b])
		} else {
			for _, e := range t {
				v += e.cf * (x[e.a] - x[e.b])
			}
		}
		out[li] = v
		acc += x[li] * v
	}
	return acc
}

// block returns the owned local cell range of reduction block j.
func (dc *DistCG) block(j int) (lo, hi int) {
	return j * dc.blk, min((j+1)*dc.blk, dc.nOwn)
}

// bindKernels builds the pool loop bodies once, all dispatched over the
// rank's reduction blocks — block-disjoint writes, block j's partial left
// in partials[j]; per-call parameters pass through fields (read at
// invocation, like the serial operator's).
func (dc *DistCG) bindKernels() {
	// The two halves of the apply. The interior pass's ⟨x,Ãx⟩ partial is
	// final where the block is all interior; the boundary pass completes
	// each mixed block's rows and redoes its partial over the whole block.
	dc.parInterior = func(lo, hi int) {
		for j := lo; j < hi; j++ {
			dc.partials[j] = dc.gather(dc.interior[dc.intStart[j]:dc.intStart[j+1]])
		}
	}
	dc.parBoundary = func(lo, hi int) {
		for _, j := range dc.mixed[lo:hi] {
			dc.gather(dc.boundary[dc.bndStart[j]:dc.bndStart[j+1]])
			b0, b1 := dc.block(int(j))
			var acc float64
			for i, v := range dc.out[b0:b1] {
				acc += dc.x[b0+i] * v
			}
			dc.partials[j] = acc
		}
	}
	dc.parResid = func(lo, hi int) {
		r, ap, rhs := dc.r, dc.ap, dc.solveRhs
		for j := lo; j < hi; j++ {
			var acc float64
			for i, end := dc.block(j); i < end; i++ {
				r[i] = rhs[i] - ap[i]
				acc += rhs[i] * rhs[i]
			}
			dc.partials[j] = acc
		}
	}
	dc.parPrecond = func(lo, hi int) {
		r, z, pv, diag := dc.r, dc.z, dc.pv, dc.diag
		for j := lo; j < hi; j++ {
			var acc float64
			for i, end := dc.block(j); i < end; i++ {
				z[i] = r[i] / diag[i]
				pv[i] = z[i]
				acc += r[i] * z[i]
			}
			dc.partials[j] = acc
		}
	}
	// The serial parUpdateNorm and parZRz in one sweep: block j's ‖r‖²
	// partial goes to partials[j], its ⟨r,z⟩ partial to partials[nBlk+j].
	dc.parUpdate = func(lo, hi int) {
		eta, r, z, pv, ap, diag, alpha := dc.solveEta, dc.r, dc.z, dc.pv, dc.ap, dc.diag, dc.alpha
		for j := lo; j < hi; j++ {
			var rr, rz float64
			for i, end := dc.block(j); i < end; i++ {
				eta[i] += alpha * pv[i]
				r[i] -= alpha * ap[i]
				rr += r[i] * r[i]
				z[i] = r[i] / diag[i]
				rz += r[i] * z[i]
			}
			dc.partials[j], dc.partials[dc.nBlk+j] = rr, rz
		}
	}
	dc.parP = func(lo, hi int) {
		z, pv, beta := dc.z, dc.pv, dc.beta
		for i := lo; i < hi; i++ {
			pv[i] = z[i] + beta*pv[i]
		}
	}
}

// fold folds all ranks' first partial lists in ascending rank order — with
// aligned cuts, exactly the serial ascending-block fold.
func (dc *DistCG) fold() float64 {
	dc.Allreduces++
	return dc.comm.FoldSum(dc.partials[:dc.nBlk])
}

// applyOverlap computes out = Ã(x) for owned cells and this rank's block
// partials of ⟨x,Ãx⟩: boundary sends are posted, the interior gather
// overlaps the in-flight messages through the sched pool, and the boundary
// gather runs once the ghosts land.
func (dc *DistCG) applyOverlap(x, out []float64) error {
	dc.hx[0] = x
	op := dc.halo.Start(dc.hx[:], 1)
	dc.x, dc.out = x, out
	sched.Run(dc.nBlk, dc.parInterior)
	err := op.Finish()
	if err == nil {
		sched.Run(len(dc.mixed), dc.parBoundary)
	}
	dc.x, dc.out = nil, nil
	dc.hx[0] = nil
	dc.HaloXchgs++
	dc.HaloBytes += dc.haloBytesPerX
	return err
}

// Solve runs the distributed PCG on the serial Solve's trajectory (see
// DistCG for what is mirrored). rhs holds the rank's owned entries (length
// w1-w0); eta is owned entries followed by halo entries in local order. On
// return eta's owned block holds the solution and halos are up to date.
// All ranks must call Solve collectively.
func (dc *DistCG) Solve(rhs, eta []float64, tol float64, maxIter int) (SolveStats, error) {
	dc.solveRhs, dc.solveEta = rhs, eta
	defer func() { dc.solveRhs, dc.solveEta = nil, nil }()

	if err := dc.applyOverlap(eta, dc.ap); err != nil {
		return SolveStats{}, err
	}
	sched.Run(dc.nBlk, dc.parResid)
	rhsNorm := math.Sqrt(dc.fold())
	if rhsNorm == 0 {
		for i := range eta {
			eta[i] = 0
		}
		return SolveStats{}, nil
	}
	sched.Run(dc.nBlk, dc.parPrecond)
	rz := dc.fold()
	for iter := 1; iter <= maxIter; iter++ {
		if err := dc.applyOverlap(dc.pv, dc.ap); err != nil {
			return SolveStats{}, err
		}
		dc.alpha = rz / dc.fold()
		sched.Run(dc.nBlk, dc.parUpdate)
		dc.Allreduces++
		var sums [2]float64
		dc.comm.FoldSums(dc.partials, sums[:])
		rnorm, rzNew := math.Sqrt(sums[0]), sums[1]
		if rnorm < tol*rhsNorm {
			if err := dc.halo.Exchange(eta, 1); err != nil {
				return SolveStats{}, err
			}
			dc.HaloXchgs++
			dc.HaloBytes += dc.haloBytesPerX
			return SolveStats{Iterations: iter, Residual: rnorm / rhsNorm}, nil
		}
		dc.beta = rzNew / rz
		rz = rzNew
		sched.Run(dc.nOwn, dc.parP)
	}
	return SolveStats{Iterations: maxIter, Residual: -1},
		fmt.Errorf("ocean: distributed CG did not converge in %d iterations", maxIter)
}

// DistBarotropic adapts DistCG to the BarotropicSolver seam: global
// compact wet vectors in, global out. Every rank holds the full global
// eta (the rest of the replicated model needs it), so the solve
// scatters into the local layout, runs distributed, and allgathers the
// owned blocks back — concatenated in ascending rank order, which is
// ascending global order for contiguous decompositions.
type DistBarotropic struct {
	CG         *DistCG
	lrhs, leta []float64
}

// NewDistBarotropic builds the distributed barotropic solver for one
// rank of the decomposition (collective).
func NewDistBarotropic(s *State, dt float64, d *grid.Decomposition, comm *par.Comm) (*DistBarotropic, error) {
	dc, err := NewDistCG(s, dt, d, comm)
	if err != nil {
		return nil, err
	}
	return &DistBarotropic{
		CG:   dc,
		lrhs: make([]float64, dc.nOwn),
		leta: make([]float64, dc.nOwn+len(dc.haloWet)),
	}, nil
}

// Solve implements BarotropicSolver over global compact wet vectors.
func (db *DistBarotropic) Solve(rhs, eta []float64, tol float64, maxIter int) (SolveStats, error) {
	dc := db.CG
	copy(db.lrhs, rhs[dc.w0:dc.w1])
	copy(db.leta[:dc.nOwn], eta[dc.w0:dc.w1])
	for k, gw := range dc.haloWet {
		db.leta[dc.nOwn+k] = eta[gw]
	}
	st, err := dc.Solve(db.lrhs, db.leta, tol, maxIter)
	if err != nil {
		return st, err
	}
	dc.comm.Allgather(db.leta[:dc.nOwn], eta)
	return st, nil
}
