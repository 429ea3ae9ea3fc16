package ocean

import (
	"math"

	"icoearth/internal/sched"
)

// trGroup is the number of tracers one pass of the transport sweep carries
// through each cell: the output buffer holds this many fields, and the
// tridiagonal substitutions run interleaved across this many columns.
const trGroup = 4

// AdvectTracers transports cell tracers (concentration per m³ of water, or
// any intensive quantity) with the volume fluxes stored by the last
// dynamics step: donor-cell upwind horizontally and vertically, plus
// implicit vertical diffusion. This is the transport interface the
// biogeochemistry component (HAMOCC's 19 tracers) rides on, mirroring how
// HAMOCC shares the ocean's transport in ICON.
//
// The sweep is cell-parallel and level-innermost. Each cell gathers the
// fluxes of its incident edges in ascending edge order — the arrival order
// of a serial edge scatter — from the old neighbour columns, runs the
// vertical upwind pass and the diffusion solve on its private column, and
// leaves the result in the output buffer, which is copied back once the
// group's sweep has finished. Tracers go through trGroup at a time.
func (d *Dynamics) AdvectTracers(qs [][]float64, dt float64) {
	d.sweepTracers(qs, dt, true)
}

// AdvectTracer is AdvectTracers for a single field.
func (d *Dynamics) AdvectTracer(q []float64, dt float64) {
	d.qs[0] = q
	d.sweepTracers(d.qs[:1], dt, true)
}

// sweepTracers runs the transport sweep over qs; vertical=false stops
// after the horizontal gather (T/S, whose vertical part must wait for the
// continuity pass).
func (d *Dynamics) sweepTracers(qs [][]float64, dt float64, vertical bool) {
	d.ensureColumnScratch()
	d.ensureTri(dt)
	d.stepDt, d.trVert = dt, vertical
	n := len(d.S.Cells)
	for len(qs) > 0 {
		d.trQ = qs[:min(trGroup, len(qs))]
		sched.RunIndexed(n, d.parTr)
		sched.Run(n, d.parTrCopy)
		qs = qs[len(d.trQ):]
	}
	d.trQ = nil
}

// ensureTri rebuilds the factorised vertical-diffusion tridiagonals when
// dt or VertDiffT changed. The coefficients depend on the wet depth only,
// so one elimination per wet-level count serves every column and tracer:
// class w occupies [w*nlev, w*nlev+w) of triM (multipliers), triB
// (eliminated diagonal) and triC (super-diagonal).
func (d *Dynamics) ensureTri(dt float64) {
	key := [2]uint64{math.Float64bits(dt), math.Float64bits(d.VertDiffT)}
	if d.triM != nil && d.triKey == key {
		return
	}
	v := d.S.Vert
	nlev := d.S.NLev
	if d.triM == nil {
		d.triM = make([]float64, (nlev+1)*nlev)
		d.triB = make([]float64, (nlev+1)*nlev)
		d.triC = make([]float64, (nlev+1)*nlev)
	}
	d.triKey = key
	for w := 2; w <= nlev; w++ {
		m, b, c := d.triM[w*nlev:], d.triB[w*nlev:], d.triC[w*nlev:]
		for k := 0; k < w; k++ {
			dz := v.Thickness(k)
			var up, dn float64
			if k > 0 {
				up = d.VertDiffT * dt / (dz * (v.ZFull[k] - v.ZFull[k-1]))
			}
			if k < w-1 {
				dn = d.VertDiffT * dt / (dz * (v.ZFull[k+1] - v.ZFull[k]))
			}
			b[k] = 1 + up + dn
			c[k] = -dn
			if k > 0 {
				m[k] = -up / b[k-1]
				b[k] -= m[k] * c[k-1]
			}
		}
	}
}

// solveColumns runs the Thomas substitutions of wet-depth class wet on
// trGroup columns at once. Each column's recurrence is a serial chain of
// one multiply-subtract (forward) or one divide (backward) per level;
// interleaving independent columns fills the latency of each chain with
// the others' work. Unused lanes point at all-zero pad columns
// (distinct ones: aliased lanes would chain through memory).
func (d *Dynamics) solveColumns(wet int, cols *[trGroup][]float64) {
	t := wet * d.S.NLev
	m, b, c := d.triM[t:t+wet], d.triB[t:t+wet], d.triC[t:t+wet]
	c0, c1, c2, c3 := cols[0][:wet], cols[1][:wet], cols[2][:wet], cols[3][:wet]
	for k := 1; k < wet; k++ {
		mk := m[k]
		c0[k] -= mk * c0[k-1]
		c1[k] -= mk * c1[k-1]
		c2[k] -= mk * c2[k-1]
		c3[k] -= mk * c3[k-1]
	}
	bk := b[wet-1]
	c0[wet-1] /= bk
	c1[wet-1] /= bk
	c2[wet-1] /= bk
	c3[wet-1] /= bk
	for k := wet - 2; k >= 0; k-- {
		ck, bk := c[k], b[k]
		c0[k] = (c0[k] - ck*c0[k+1]) / bk
		c1[k] = (c1[k] - ck*c1[k+1]) / bk
		c2[k] = (c2[k] - ck*c2[k+1]) / bk
		c3[k] = (c3[k] - ck*c3[k+1]) / bk
	}
}

// advectColumnUpwind applies upwind vertical advection to one column with
// the interface volume fluxes mfv (positive up) and level volumes vol.
func advectColumnUpwind(col, mfv, vol []float64, wet int, dt float64) {
	var fAbove float64
	for k := 0; k < wet; k++ {
		var fBelow float64
		if k < wet-1 {
			mf := mfv[k+1]
			qUp := col[k]
			if mf >= 0 {
				qUp = col[k+1]
			}
			fBelow = mf * qUp
		}
		col[k] += dt * (fBelow - fAbove) / vol[k]
		fAbove = fBelow
	}
}

// gatherEdge applies one edge's donor-cell fluxes mf·q_upwind to a column:
// q0 and q1 are the old columns of the edge's two cells, sdt is +dt on the
// c0 side and −dt on the c1 side.
func gatherEdge(col, q0, q1, mf, vol []float64, sdt float64) {
	n := len(mf)
	col, q0, q1, vol = col[:n], q0[:n], q1[:n], vol[:n]
	for k, v := range mf {
		var tf float64
		if v != 0 {
			qUp := q1[k]
			if v >= 0 {
				qUp = q0[k]
			}
			tf = v * qUp
		}
		col[k] -= sdt * tf / vol[k]
	}
}

// bindTracer builds the transport-sweep loop bodies (called once from
// bindKernels).
func (d *Dynamics) bindTracer() {
	d.parTr = func(slot, lo, hi int) {
		s := d.S
		nlev := s.NLev
		field := len(s.Cells) * nlev
		qs, dt := d.trQ, d.stepDt
		refs, refStart := d.Op.refs, d.Op.refStart
		var cols [trGroup][]float64
		for g := range cols {
			cols[g] = d.pad[(slot*trGroup+g)*nlev : (slot*trGroup+g+1)*nlev]
		}
		for i := lo; i < hi; i++ {
			vol := d.vol[i*nlev : (i+1)*nlev]
			wet := int(s.wet[i])
			mfv := s.MassFluxVert[i*(nlev+1) : (i+1)*(nlev+1)]
			edges := refs[refStart[i]:refStart[i+1]]
			for g, q := range qs {
				col := d.trOut[g*field+i*nlev : g*field+(i+1)*nlev]
				cols[g] = col
				copy(col, q[i*nlev:(i+1)*nlev])
				// Horizontal: the cell's edges in ascending order, each flux
				// recomputed from the old donor column. Subtracting with −dt
				// on the receiving side equals the scatter's addition exactly.
				for _, ref := range edges {
					ei := int(ref >> 1)
					c0, c1 := s.EdgeCells[ei][0], s.EdgeCells[ei][1]
					sdt := dt
					if ref&1 != 0 {
						sdt = -dt
					}
					gatherEdge(col, q[c0*nlev:(c0+1)*nlev], q[c1*nlev:(c1+1)*nlev],
						s.MassFluxEdge[ei*nlev:(ei+1)*nlev], vol, sdt)
				}
				if d.trVert {
					advectColumnUpwind(col, mfv, vol, wet, dt)
				}
			}
			if d.trVert && wet >= 2 {
				d.solveColumns(wet, &cols)
			}
		}
	}

	d.parTrCopy = func(lo, hi int) {
		nlev := d.S.NLev
		field := len(d.S.Cells) * nlev
		for g, q := range d.trQ {
			copy(q[lo*nlev:hi*nlev], d.trOut[g*field+lo*nlev:g*field+hi*nlev])
		}
	}
}

// TracerInventory returns ∫q dV over the wet ocean for a compact tracer
// field (units of q × m³).
func (s *State) TracerInventory(q []float64) float64 {
	var m float64
	nlev := s.NLev
	for i, c := range s.Cells {
		a := s.G.CellArea[c]
		wet := s.WetLevels(i)
		for k := 0; k < wet; k++ {
			m += q[i*nlev+k] * a * s.Vert.Thickness(k)
		}
	}
	return m
}
