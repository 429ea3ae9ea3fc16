package ocean

import (
	"math"

	"icoearth/internal/sched"
)

// trGroup is the number of tracers one pass of the transport sweep carries
// through each cell: the output buffer holds this many fields, and the
// tridiagonal substitutions run interleaved across this many columns.
const trGroup = 4

// nCoef is the number of weights the sweep holds per cell-level: the level
// itself, the level above, the level below, and the cell's (up to) three
// edge neighbours in the order of BarotropicOp.refs.
const nCoef = 6

// AdvectTracers transports cell tracers (concentration per m³ of water, or
// any intensive quantity) with the volume fluxes stored by the last
// dynamics step: donor-cell upwind horizontally and vertically, both taken
// from the same old state, plus implicit vertical diffusion. This is the
// transport interface the biogeochemistry component (HAMOCC's 19 tracers)
// rides on, mirroring how HAMOCC shares the ocean's transport in ICON.
//
// The sweep is two cell-parallel passes. The coefficient pass turns the
// fluxes, dt and the reciprocal cell volumes into nCoef weights per
// cell-level, once for every tracer (DESIGN.md §16). The stencil pass then
// forms each tracer's new column as the weighted sum of its old column and
// the old neighbour columns, runs the diffusion solve on it, and leaves the
// result in the output buffer, which is copied back once the group's sweep
// has finished. Tracers go through trGroup at a time.
func (d *Dynamics) AdvectTracers(qs [][]float64, dt float64) {
	d.sweepTracers(qs, dt, true)
}

// AdvectTracer is AdvectTracers for a single field.
func (d *Dynamics) AdvectTracer(q []float64, dt float64) {
	d.qs[0] = q
	d.sweepTracers(d.qs[:1], dt, true)
}

// sweepTracers runs the transport sweep over qs; diffuse=false leaves out
// the diffusion solve (T/S, whose solve follows the surface sources).
func (d *Dynamics) sweepTracers(qs [][]float64, dt float64, diffuse bool) {
	d.ensureColumnScratch()
	d.ensureTri(dt)
	d.stepDt, d.trDiffuse = dt, diffuse
	n := len(d.S.Cells)
	sched.Run(n, d.parCoef)
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
// class w occupies [w*nlev, w*nlev+w) of triM (multipliers), triR
// (reciprocal of the eliminated diagonal) and triC (super-diagonal times
// that reciprocal).
func (d *Dynamics) ensureTri(dt float64) {
	key := [2]uint64{math.Float64bits(dt), math.Float64bits(d.VertDiffT)}
	if d.triM != nil && d.triKey == key {
		return
	}
	v := d.S.Vert
	nlev := d.S.NLev
	if d.triM == nil {
		d.triM = make([]float64, (nlev+1)*nlev)
		d.triR = make([]float64, (nlev+1)*nlev)
		d.triC = make([]float64, (nlev+1)*nlev)
	}
	d.triKey = key
	for w := 2; w <= nlev; w++ {
		m, r, c := d.triM[w*nlev:], d.triR[w*nlev:], d.triC[w*nlev:]
		var bPrev, cPrev float64
		for k := 0; k < w; k++ {
			dz := v.Thickness(k)
			var up, dn float64
			if k > 0 {
				up = d.VertDiffT * dt / (dz * (v.ZFull[k] - v.ZFull[k-1]))
			}
			if k < w-1 {
				dn = d.VertDiffT * dt / (dz * (v.ZFull[k+1] - v.ZFull[k]))
			}
			b := 1 + up + dn
			if k > 0 {
				m[k] = -up / bPrev
				b -= m[k] * cPrev
			}
			r[k] = 1 / b
			c[k] = -dn * r[k]
			bPrev, cPrev = b, -dn
		}
	}
}

// solveColumns runs the Thomas substitutions of wet-depth class wet on
// trGroup columns at once. Each column's recurrence is a serial chain of
// one multiply-subtract per level (the back substitution's product with
// the reciprocal diagonal is off the chain); interleaving independent
// columns fills the latency of each chain with the others' work. Unused
// lanes point at all-zero pad columns (distinct ones: aliased lanes would
// chain through memory).
func (d *Dynamics) solveColumns(wet int, cols *[trGroup][]float64) {
	t := wet * d.S.NLev
	m, r, c := d.triM[t:t+wet], d.triR[t:t+wet], d.triC[t:t+wet]
	c0, c1, c2, c3 := cols[0][:wet], cols[1][:wet], cols[2][:wet], cols[3][:wet]
	for k := 1; k < wet; k++ {
		mk := m[k]
		c0[k] -= mk * c0[k-1]
		c1[k] -= mk * c1[k-1]
		c2[k] -= mk * c2[k-1]
		c3[k] -= mk * c3[k-1]
	}
	rk := r[wet-1]
	c0[wet-1] *= rk
	c1[wet-1] *= rk
	c2[wet-1] *= rk
	c3[wet-1] *= rk
	for k := wet - 2; k >= 0; k-- {
		ck, rk := c[k], r[k]
		c0[k] = c0[k]*rk - ck*c0[k+1]
		c1[k] = c1[k]*rk - ck*c1[k+1]
		c2[k] = c2[k]*rk - ck*c2[k+1]
		c3[k] = c3[k]*rk - ck*c3[k+1]
	}
}

// stencilColumn forms the wet levels of one tracer's new column from its
// old column q, the old columns qa, qb, qc of the cell's edge neighbours
// and the cell's weights w, one set per wet level. The top level has no
// level above and the bottom none below; their weights are zero there (no
// flux crosses the surface or the bottom) and the level itself stands in.
func stencilColumn(out, q, qa, qb, qc []float64, w [][nCoef]float64) {
	n := len(w)
	out, q, qa, qb, qc = out[:n], q[:n], qa[:n], qb[:n], qc[:n]
	above, cur := q[0], q[0]
	for k := 0; k < n-1; k++ {
		c, below := &w[k], q[k+1]
		out[k] = c[0]*cur + c[1]*above + c[2]*below + c[3]*qa[k] + c[4]*qb[k] + c[5]*qc[k]
		above, cur = cur, below
	}
	c := &w[n-1]
	out[n-1] = c[0]*cur + c[1]*above + c[2]*cur + c[3]*qa[n-1] + c[4]*qb[n-1] + c[5]*qc[n-1]
}

// coefCells is the coefficient pass over cells [lo,hi): the weights of
// cell-level (i,k) from the volume fluxes out of it — F through each edge,
// up through its top and −dn through its bottom interface — with h = dt/V.
// An inflow |F| from a neighbour gives that neighbour's weight h·|F|;
// every outflow comes off the level's own weight 1 − h·Σoutflow. ½(|F|−F)
// is the inflow and ½(|F|+F) the outflow part of F, exactly and without a
// branch; the ½ rides in h. A cell with fewer than three wet edges reads
// its own rvol column with sign zero in its spare slots, which leaves their
// weights zero.
func (d *Dynamics) coefCells(lo, hi int) {
	s := d.S
	nlev := s.NLev
	half := 0.5 * d.stepDt
	refs, refStart := d.Op.refs, d.Op.refStart
	for i := lo; i < hi; i++ {
		wet := int(s.wet[i])
		w := d.coef[i*nlev : i*nlev+wet]
		rvol := d.rvol[i*nlev : i*nlev+wet]
		mfv := s.MassFluxVert[i*(nlev+1) : i*(nlev+1)+wet+1]
		var sgn [3]float64
		mf := [3][]float64{rvol, rvol, rvol}
		for j, ref := range refs[refStart[i]:refStart[i+1]] {
			ei := int(ref >> 1)
			mf[j], sgn[j] = s.MassFluxEdge[ei*nlev:ei*nlev+wet], 1-2*float64(ref&1)
		}
		mf0, mf1, mf2 := mf[0], mf[1], mf[2]
		for k, rv := range rvol {
			h := half * rv
			up, dn := mfv[k], mfv[k+1]
			f0, f1, f2 := sgn[0]*mf0[k], sgn[1]*mf1[k], sgn[2]*mf2[k]
			au, ad, a0, a1, a2 := math.Abs(up), math.Abs(dn), math.Abs(f0), math.Abs(f1), math.Abs(f2)
			c := &w[k]
			c[0] = 1 - h*((au+up)+(ad-dn)+(a0+f0)+(a1+f1)+(a2+f2))
			c[1], c[2] = h*(au-up), h*(ad+dn)
			c[3], c[4], c[5] = h*(a0-f0), h*(a1-f1), h*(a2-f2)
		}
	}
}

// stencilCells is the stencil pass over cells [lo,hi) for the tracer group
// in trQ, with the diffusion solve on the finished columns.
func (d *Dynamics) stencilCells(slot, lo, hi int) {
	s := d.S
	nlev := s.NLev
	field := len(s.Cells) * nlev
	qs := d.trQ
	refs, refStart := d.Op.refs, d.Op.refStart
	var cols [trGroup][]float64
	for g := range cols {
		cols[g] = d.pad[(slot*trGroup+g)*nlev : (slot*trGroup+g+1)*nlev]
	}
	for i := lo; i < hi; i++ {
		wet := int(s.wet[i])
		w := d.coef[i*nlev : i*nlev+wet]
		// The edge neighbours; a spare slot (weight zero) reads the cell
		// itself.
		nb := [3]int{i, i, i}
		for j, ref := range refs[refStart[i]:refStart[i+1]] {
			nb[j] = s.EdgeCells[ref>>1][1-(ref&1)]
		}
		for g, q := range qs {
			col := d.trOut[g*field+i*nlev : g*field+(i+1)*nlev]
			cols[g] = col
			self := q[i*nlev : (i+1)*nlev]
			stencilColumn(col, self, q[nb[0]*nlev:], q[nb[1]*nlev:], q[nb[2]*nlev:], w)
			copy(col[wet:], self[wet:])
		}
		if d.trDiffuse && wet >= 2 {
			d.solveColumns(wet, &cols)
		}
	}
}

// copyBackCells copies the finished group from the output buffer to the
// tracer fields.
func (d *Dynamics) copyBackCells(lo, hi int) {
	nlev := d.S.NLev
	field := len(d.S.Cells) * nlev
	for g, q := range d.trQ {
		copy(q[lo*nlev:hi*nlev], d.trOut[g*field+lo*nlev:g*field+hi*nlev])
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
