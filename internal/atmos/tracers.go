package atmos

import "icoearth/internal/sched"

// Transport advances all tracers with flux-form upwind advection using the
// mass fluxes of the last dycore step. Using the identical mass fluxes as
// the continuity equation guarantees tracer–mass consistency: a spatially
// constant mixing ratio stays exactly constant, and total tracer mass is
// conserved to round-off (no sources).
//
// Each tracer is one cell sweep: a cell's column is finished completely —
// horizontal donor-cell fluxes of its three edges, vertical upwind, the
// new mixing ratio — with levels innermost. The sweep reads neighbour
// columns of the old field only and writes d.rhoQ, which a second pool
// pass copies back, so no block reads a half-updated neighbour and
// results do not depend on the worker count.
//
// rhoOld must be the density field from before the dycore step.
func (d *Dycore) Transport(dt float64, rhoOld []float64) {
	s := d.S
	d.parDt = dt
	d.trRhoOld = rhoOld
	for t := 0; t < NumTracers; t++ {
		d.trQ = s.Tracers[t]
		sched.Run(s.G.NCells, d.parTrSweep)
		sched.Run(len(d.trQ), d.parTrCopy)
	}
	d.trQ, d.trRhoOld = nil, nil
}

// bindTransport builds the tracer-advection loop bodies (called once from
// bindKernels).
func (d *Dycore) bindTransport() {
	d.parTrSweep = func(lo, hi int) {
		s := d.S
		g := s.G
		nlev := s.NLev
		q, dt := d.trQ, d.parDt
		for c := lo; c < hi; c++ {
			base := c * nlev
			// out first accumulates the horizontal flux divergence Σᵢ oᵢlᵢ·F(eᵢ),
			// edge by edge in the cell's edge order, each edge's tracer flux
			// f·q_donor recomputed from the old columns of its two cells.
			out := d.rhoQ[base : base+nlev]
			clear(out)
			for i, e := range g.CellEdges[c] {
				ol := float64(g.EdgeOrient[c][i]) * g.EdgeLength[e]
				c0, c1 := g.EdgeCells[e][0]*nlev, g.EdgeCells[e][1]*nlev
				mf, q0, q1 := d.MassFluxEdge[e*nlev:(e+1)*nlev], q[c0:c0+nlev], q[c1:c1+nlev]
				for k, f := range mf {
					qUp := q1[k]
					if f >= 0 {
						qUp = q0[k]
					}
					out[k] += ol * (f * qUp)
				}
			}
			// Then ρq after the horizontal step, the vertical upwind with the
			// implicit mass flux, and the new mixing ratio against the
			// updated density.
			area := g.CellArea[c]
			qc, rhoOld, rho := q[base:base+nlev], d.trRhoOld[base:base+nlev], s.Rho[base:base+nlev]
			mfv := d.MassFluxVert[c*(nlev+1) : (c+1)*(nlev+1)]
			var fAbove float64 // tracer mass flux through interface k
			for k := range out {
				var fBelow float64
				if k < nlev-1 {
					qUp := qc[k]
					if mfv[k+1] >= 0 { // upward: donor is the level below (k+1)
						qUp = qc[k+1]
					}
					fBelow = mfv[k+1] * qUp
				}
				rq := rhoOld[k]*qc[k] - dt*out[k]/area
				rq += dt * (fBelow - fAbove) / s.Vert.LayerThickness(k)
				fAbove = fBelow
				qn := rq / rho[k]
				if qn < 0 {
					qn = 0 // clip round-off negatives from the donor scheme
				}
				out[k] = qn
			}
		}
	}

	d.parTrCopy = func(lo, hi int) {
		copy(d.trQ[lo:hi], d.rhoQ[lo:hi])
	}
}
