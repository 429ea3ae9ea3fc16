package grid

import (
	"icoearth/internal/gen"
	"icoearth/internal/sched"
)

// Second-order horizontal operators built from the primitive C-grid
// operators: the scalar Laplacian ∇²ψ = ∇·(∇ψ) used by diffusion and
// divergence damping, and a local smoothing filter. Both appear throughout
// ICON's dycore and physics as the building blocks of horizontal mixing.

// Laplacian computes ∇²ψ at cells: the divergence of the edge-normal
// gradient. On the sphere this discretisation is exact for constants and
// converges to the Laplace–Beltrami operator (tested against spherical
// harmonics, whose eigenvalues are −l(l+1)/R²). Cell-parallel on the
// worker pool; each output cell is an independent gather.
// Dispatches the SDFG-generated lap_cell kernel, whose emitted prologue
// hoists the 9 distinct nested index lookups per cell.
func (g *Grid) Laplacian(psi, out []float64) {
	t := &g.Gen
	sched.Run(g.NCells, gen.BindLapCell(g.CellArea, g.DualLength, g.EdgeLength, out,
		t.O1, t.O2, t.O3, psi, t.Icell1, t.Icell2, t.Iel1, t.Iel2, t.Iel3))
}

// LaplacianLevels applies the Laplacian level-by-level to a cell×nlev
// field (level-fastest layout): per (cell,level) the three edge
// contributions accumulate left to right in a register. Dispatches the
// SDFG-generated lap_levels kernel with the per-(cell,edge) weight
// Gen.W1…3 precomputed once at grid build.
func (g *Grid) LaplacianLevels(psi, out []float64, nlev int) {
	t := &g.Gen
	sched.Run(g.NCells, gen.BindLapLevels(nlev, out, psi, t.W1, t.W2, t.W3,
		t.Icell1, t.Icell2, t.Iel1, t.Iel2, t.Iel3))
}

// Smooth applies one pass of neighbour averaging with weight alpha:
// ψ ← (1−α)ψ + α·mean(neighbours). alpha=0 is the identity; alpha in
// (0,1] damps grid-scale noise while conserving the area-weighted mean
// only approximately (cell areas are nearly uniform).
func (g *Grid) Smooth(psi []float64, alpha float64, scratch []float64) {
	sched.Run(g.NCells, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			m := (psi[g.CellNeighbors[c][0]] + psi[g.CellNeighbors[c][1]] + psi[g.CellNeighbors[c][2]]) / 3
			scratch[c] = (1-alpha)*psi[c] + alpha*m
		}
	})
	copy(psi, scratch)
}
