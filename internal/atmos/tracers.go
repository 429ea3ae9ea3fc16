package atmos

import "icoearth/internal/sched"

// Transport advances all tracers with flux-form upwind advection using the
// mass fluxes of the last dycore step. Using the identical mass fluxes as
// the continuity equation guarantees tracer–mass consistency: a spatially
// constant mixing ratio stays exactly constant, and total tracer mass is
// conserved to round-off (no sources).
//
// Each tracer runs four worker-pool sweeps: edge fluxes, horizontal
// divergence per cell, vertical upwind per column, and the mixing-ratio
// update — all writes are disjoint per index, so results do not depend on
// the worker count.
//
// rhoOld must be the density field from before the dycore step.
func (d *Dycore) Transport(dt float64, rhoOld []float64) {
	s := d.S
	g := s.G
	d.parDt = dt
	d.trRhoOld = rhoOld
	for t := 0; t < NumTracers; t++ {
		d.trQ = s.Tracers[t]
		sched.Run(g.NEdges, d.parTrFluxE)
		sched.Run(g.NCells, d.parTrCell)
		sched.Run(g.NCells, d.parTrVert)
		sched.Run(len(d.trQ), d.parTrMix)
	}
	d.trQ, d.trRhoOld = nil, nil
}

// bindTransport builds the tracer-advection loop bodies (called once from
// bindKernels).
func (d *Dycore) bindTransport() {
	d.parTrFluxE = func(lo, hi int) {
		g := d.S.G
		nlev := d.S.NLev
		q := d.trQ
		massFlux, qFlux := d.MassFluxEdge, d.edgeShared
		for e := lo; e < hi; e++ {
			c0, c1 := g.EdgeCells[e][0], g.EdgeCells[e][1]
			for k := 0; k < nlev; k++ {
				f := massFlux[e*nlev+k]
				var qUp float64
				if f >= 0 {
					qUp = q[c0*nlev+k]
				} else {
					qUp = q[c1*nlev+k]
				}
				qFlux[e*nlev+k] = f * qUp
			}
		}
	}

	d.parTrCell = func(lo, hi int) {
		g := d.S.G
		nlev := d.S.NLev
		q, rhoOld, dt := d.trQ, d.trRhoOld, d.parDt
		qFlux, rhoQ := d.edgeShared, d.rhoQ
		for c := lo; c < hi; c++ {
			cellEdges, orient := g.CellEdges[c], g.EdgeOrient[c]
			for k := 0; k < nlev; k++ {
				var df float64
				for i, e := range cellEdges {
					df += float64(orient[i]) * g.EdgeLength[e] * qFlux[e*nlev+k]
				}
				i := c*nlev + k
				rhoQ[i] = rhoOld[i]*q[i] - dt*df/g.CellArea[c]
			}
		}
	}

	// Vertical upwind with the implicit mass flux; columns are independent.
	d.parTrVert = func(lo, hi int) {
		s := d.S
		nlev := s.NLev
		q, dt := d.trQ, d.parDt
		massFluxVert, rhoQ := d.MassFluxVert, d.rhoQ
		for c := lo; c < hi; c++ {
			base := c * nlev
			wbase := c * (nlev + 1)
			var fAbove float64 // tracer mass flux through interface k
			for k := 0; k < nlev; k++ {
				var fBelow float64
				if k < nlev-1 {
					mf := massFluxVert[wbase+k+1]
					var qUp float64
					if mf >= 0 { // upward: donor is the level below (k+1)
						qUp = q[base+k+1]
					} else {
						qUp = q[base+k]
					}
					fBelow = mf * qUp
				}
				dz := s.Vert.LayerThickness(k)
				rhoQ[base+k] += dt * (fBelow - fAbove) / dz
				fAbove = fBelow
			}
		}
	}

	// New mixing ratio against the updated density.
	d.parTrMix = func(lo, hi int) {
		q, rhoQ, rho := d.trQ, d.rhoQ, d.S.Rho
		for i := lo; i < hi; i++ {
			q[i] = rhoQ[i] / rho[i]
			if q[i] < 0 {
				q[i] = 0 // clip round-off negatives from the donor scheme
			}
		}
	}
}
