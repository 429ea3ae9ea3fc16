package atmos

import (
	"math"

	"icoearth/internal/gen"
	"icoearth/internal/sched"
	"icoearth/internal/sphere"
)

// Dycore advances the compressible equations with the two-time-level
// predictor–corrector scheme used by ICON: the horizontal momentum equation
// is stepped explicitly (predictor with the old Exner pressure, corrector
// with the time-averaged one), while the vertical acoustic system — w and
// the Exner response to vertical mass-flux convergence — is solved
// implicitly per column with the Thomas algorithm. Divergence damping
// stabilises the acoustic modes, and a Rayleigh sponge damps w near the
// model top.
//
// Every stage executes on the shared worker pool (internal/sched) as
// NPROMA-blocked loops over cells, edges, vertices or columns, each
// walking the levels of its element innermost at unit stride. Loop bodies
// are bound once at construction and parameters pass through struct
// fields, so a steady-state step performs no per-dispatch allocation;
// reductions and scatter loops are structured so results are bit-identical
// at every worker count (see the sched package doc).
type Dycore struct {
	S *State

	// DivDamp is the nondimensional divergence damping coefficient
	// (ICON: ~1/50 per step).
	DivDamp float64
	// SpongeLevels is the number of top levels with Rayleigh damping on w.
	SpongeLevels int
	// SpongeCoeff is the maximum sponge damping rate (1/s).
	SpongeCoeff float64
	// ImplicitWeight is the off-centering of the vertical solver (0.5 =
	// Crank-Nicolson, 1 = backward Euler).
	ImplicitWeight float64

	// Perot reconstruction coefficients as flat per-component columns —
	// the binding surface of the generated perot_uc kernel:
	// u⃗(c) = Σᵢ (pxᵢ,pyᵢ,pzᵢ)[c]·vn(eᵢ).
	px1, px2, px3 []float64
	py1, py2, py3 []float64
	pz1, pz2, pz3 []float64
	// f at edges (Coriolis parameter).
	fEdge []float64

	// Mass fluxes of the last step, consumed by tracer transport:
	// MassFluxEdge[e*nlev+k] is the time-centred ρ·vn used in continuity;
	// MassFluxVert[c*(nlev+1)+k] the implicit ρ·w at interfaces.
	MassFluxEdge []float64
	MassFluxVert []float64

	// Scratch. Every field is levels-innermost like the state: cell fields
	// [c*nlev+k], edge fields [e*nlev+k], vertex fields [v*nlev+k].
	thFluxEdge []float64 // ρθ flux at edges
	rhoQ       []float64 // the tracer sweep's output, copied back per tracer
	// vnAdv is the advective vn tendency (ζ+f)·vt − ∂n KE at edges, stored
	// by the predictor's tendency call and read by the corrector's.
	vnAdv []float64
	ke    []float64 // kinetic energy at cells
	// Perot cell vectors, cell×level, one slice per component (the
	// generated reconstruction kernels write and read these directly).
	ucx, ucy, ucz      []float64
	zeta               []float64 // vorticity at vertices
	vt                 []float64 // tangential velocity at edges
	div                []float64 // divergence of vn at cells (damping scratch)
	vnPred             []float64
	exnerNew           []float64
	thA, thB, thC, thD []float64 // tridiagonal workspace, one stripe per worker slot

	// Pre-bound worker-pool bodies; per-call parameters pass through the
	// fields below so dispatch stays allocation-free.
	parKE, parUC, parVT         func(lo, hi int)
	parZeta, parTend            func(lo, hi int)
	parDiv, parDamp             func(lo, hi int)
	parPred, parFluxE, parFluxC func(lo, hi int)
	parCorrExner, parCorrVn     func(lo, hi int)
	parSponge                   func(lo, hi int)
	parVSolve                   func(slot, lo, hi int)
	parTrSweep, parTrCopy       func(lo, hi int)
	parDt                       float64
	tendExner, tendOut          []float64
	tendReuse                   bool
	trQ, trRhoOld               []float64
}

// NewDycore builds a dycore for the state with default stabilisation
// parameters.
func NewDycore(s *State) *Dycore {
	g := s.G
	nlev := s.NLev
	d := &Dycore{
		S:              s,
		DivDamp:        0.02,
		SpongeLevels:   max(2, nlev/10),
		SpongeCoeff:    1.0 / 600,
		ImplicitWeight: 1.0,
		MassFluxEdge:   make([]float64, g.NEdges*nlev),
		MassFluxVert:   make([]float64, g.NCells*(nlev+1)),
		thFluxEdge:     make([]float64, g.NEdges*nlev),
		rhoQ:           make([]float64, g.NCells*nlev),
		vnAdv:          make([]float64, g.NEdges*nlev),
		ke:             make([]float64, g.NCells*nlev),
		ucx:            make([]float64, g.NCells*nlev),
		ucy:            make([]float64, g.NCells*nlev),
		ucz:            make([]float64, g.NCells*nlev),
		zeta:           make([]float64, g.NVerts*nlev),
		vt:             make([]float64, g.NEdges*nlev),
		div:            make([]float64, g.NCells*nlev),
		vnPred:         make([]float64, g.NEdges*nlev),
		exnerNew:       make([]float64, g.NCells*nlev),
	}
	d.buildPerot()
	d.fEdge = make([]float64, g.NEdges)
	for e := range d.fEdge {
		lat, _ := g.EdgeCenter[e].LatLon()
		d.fEdge[e] = 2 * Omega * math.Sin(lat)
	}
	d.bindKernels()
	return d
}

// buildPerot precomputes the cell-centre vector reconstruction weights
// (Perot 2000): u⃗(c) = 1/A_c Σ_e o_ce·l_e·vn(e)·R(x̂_e − x̂_c).
func (d *Dycore) buildPerot() {
	g := d.S.G
	n := g.NCells
	d.px1, d.px2, d.px3 = make([]float64, n), make([]float64, n), make([]float64, n)
	d.py1, d.py2, d.py3 = make([]float64, n), make([]float64, n), make([]float64, n)
	d.pz1, d.pz2, d.pz3 = make([]float64, n), make([]float64, n), make([]float64, n)
	px := [3][]float64{d.px1, d.px2, d.px3}
	py := [3][]float64{d.py1, d.py2, d.py3}
	pz := [3][]float64{d.pz1, d.pz2, d.pz3}
	for c := range g.CellEdges {
		for i, e := range g.CellEdges[c] {
			w := g.EdgeLength[e] * float64(g.EdgeOrient[c][i]) * sphere.EarthRadius / g.CellArea[c]
			p := g.EdgeCenter[e].Sub(g.CellCenter[c]).Scale(w)
			px[i][c], py[i][c], pz[i][c] = p.X, p.Y, p.Z
		}
	}
}

// ensureColumnScratch sizes the per-worker-slot tridiagonal stripes; the
// slot count is stable once the pool is configured, so this allocates at
// most once per configuration change.
func (d *Dycore) ensureColumnScratch() {
	need := sched.Slots() * (d.S.NLev + 1)
	if len(d.thA) < need {
		d.thA = make([]float64, need)
		d.thB = make([]float64, need)
		d.thC = make([]float64, need)
		d.thD = make([]float64, need)
	}
}

// KineticEnergyKernel fills d.ke: the z_ekinh computation of the paper's
// §5.2 listing, cell-parallel on the worker pool.
func (d *Dycore) KineticEnergyKernel() {
	sched.Run(d.S.G.NCells, d.parKE)
}

// TangentialKernel reconstructs cell-centre velocity vectors (Perot) and
// the tangential wind at edges into d.vt: a cell-parallel reconstruction
// sweep into the persistent d.uc scratch, then an edge-parallel
// projection sweep.
func (d *Dycore) TangentialKernel() {
	sched.Run(d.S.G.NCells, d.parUC)
	sched.Run(d.S.G.NEdges, d.parVT)
}

// vnTendencies computes the explicit horizontal momentum tendency into
// out: (ζ+f)·vt − ∂n KE − Cpd·θ_e·∂n Π, using the supplied Exner field and
// State.Theta, which must be current (it is after UpdateDiagnostics and
// after the corrector's Exner refresh). Two sweeps, both walking levels
// innermost over contiguous columns: a vertex pass gathers the vorticity
// of each vertex from its incident edges in ascending edge order — the
// arrival order of an edge-ordered scatter, so the sums round the same at
// every block decomposition — and an edge pass combines the columns of the
// edge's two cells and two vertices. The advective part (ζ+f)·vt − ∂n KE
// is left in d.vnAdv; with reuse set it is read from there instead of
// recomputed (no vertex pass), which is exact as long as vn, ke and vt are
// those of the storing call (predictor → corrector).
func (d *Dycore) vnTendencies(exner []float64, out []float64, reuse bool) {
	d.tendExner, d.tendOut, d.tendReuse = exner, out, reuse
	if !reuse {
		sched.Run(d.S.G.NVerts, d.parZeta)
	}
	sched.Run(d.S.G.NEdges, d.parTend)
	d.tendExner, d.tendOut = nil, nil
}

// divergenceDamping adds κ·Δx²/Δt·∂n(div vn) to vn, suppressing acoustic
// noise of the predictor–corrector (ICON's divergence damping): a cell
// pass fills d.div, an edge pass applies its gradient.
func (d *Dycore) divergenceDamping(dt float64) {
	if d.DivDamp == 0 {
		return
	}
	d.parDt = dt
	sched.Run(d.S.G.NCells, d.parDiv)
	sched.Run(d.S.G.NEdges, d.parDamp)
}

// Step advances the prognostic state by dt seconds. The stages mirror the
// kernel structure of ICON's dynamical core; Model launches them as
// individual device kernels.
func (d *Dycore) Step(dt float64) {
	d.S.UpdateDiagnostics()
	d.KineticEnergyKernel()
	d.TangentialKernel()
	d.StagePredictor(dt)
	d.StageHorizontalFluxes(dt)
	d.StageVertical(dt)
	d.StageCorrector(dt)
	d.StageDamping(dt)
}

// StagePredictor computes vn* = vn + Δt·tend(Π at time n) into d.vnPred.
func (d *Dycore) StagePredictor(dt float64) {
	d.vnTendencies(d.S.Exner, d.vnPred, false)
	d.parDt = dt
	sched.Run(len(d.vnPred), d.parPred)
}

// StageHorizontalFluxes computes and applies the horizontal mass and ρθ
// flux divergences: an edge-parallel flux sweep, then a cell-parallel
// divergence sweep. Fluxes are fully precomputed per edge before any
// cell is updated, so the update is order-independent and exactly
// conservative (every edge flux enters its two cells with opposite
// signs).
func (d *Dycore) StageHorizontalFluxes(dt float64) {
	d.parDt = dt
	sched.Run(d.S.G.NEdges, d.parFluxE)
	sched.Run(d.S.G.NCells, d.parFluxC)
}

// StageVertical performs the vertical implicit solve; updates w, ρ, ρθ.
func (d *Dycore) StageVertical(dt float64) {
	d.verticalSolve(dt)
}

// StageCorrector recomputes vn with the time-averaged Exner gradient and
// the predictor's advective tendency, and refreshes the diagnostics: ρ and
// ρθ are final once the vertical solve is done.
func (d *Dycore) StageCorrector(dt float64) {
	sched.Run(len(d.S.RhoTheta), d.parCorrExner)
	d.vnTendencies(d.exnerNew, d.vnPred, true)
	d.parDt = dt
	sched.Run(len(d.S.Vn), d.parCorrVn)
}

// StageDamping applies divergence damping and the top sponge.
func (d *Dycore) StageDamping(dt float64) {
	d.divergenceDamping(dt)
	d.sponge(dt)
}

// sponge applies Rayleigh damping to w in the top levels.
func (d *Dycore) sponge(dt float64) {
	d.parDt = dt
	sched.Run(d.S.G.NCells, d.parSponge)
}

// verticalSolve performs the implicit acoustic update: solves the
// tridiagonal system for w at interior interfaces of every column, then
// applies the vertical flux convergence to ρ and ρθ. Columns are
// independent and run column-parallel with one tridiagonal stripe per
// worker slot.
func (d *Dycore) verticalSolve(dt float64) {
	d.ensureColumnScratch()
	d.parDt = dt
	sched.RunIndexed(d.S.G.NCells, d.parVSolve)
}

// bindKernels builds the worker-pool loop bodies once; they capture only
// the receiver, with per-call parameters passed through fields.
func (d *Dycore) bindKernels() {
	d.bindHotKernels()

	d.parZeta = func(lo, hi int) {
		s := d.S
		g := s.G
		nlev := s.NLev
		for v := lo; v < hi; v++ {
			z := d.zeta[v*nlev : (v+1)*nlev]
			clear(z)
			for _, e := range g.VertEdges[v] {
				vn, dl := s.Vn[e*nlev:(e+1)*nlev], g.DualLength[e]
				if g.EdgeVerts[e][0] == v {
					dl = -dl // circulation is negative around an edge's first vertex; negation is exact
				}
				for k := range z {
					z[k] += vn[k] * dl
				}
			}
			area := g.DualArea[v]
			for k := range z {
				z[k] /= area
			}
		}
	}

	d.parTend = func(lo, hi int) {
		s := d.S
		g := s.G
		nlev := s.NLev
		exner, reuse := d.tendExner, d.tendReuse
		for e := lo; e < hi; e++ {
			c0, c1 := g.EdgeCells[e][0]*nlev, g.EdgeCells[e][1]*nlev
			dl := g.DualLength[e]
			adv := d.vnAdv[e*nlev : (e+1)*nlev]
			if !reuse {
				v0, v1 := g.EdgeVerts[e][0]*nlev, g.EdgeVerts[e][1]*nlev
				ke0, ke1 := d.ke[c0:c0+nlev], d.ke[c1:c1+nlev]
				z0, z1 := d.zeta[v0:v0+nlev], d.zeta[v1:v1+nlev]
				vt, f := d.vt[e*nlev:(e+1)*nlev], d.fEdge[e]
				for k := range adv {
					gradKE := (ke1[k] - ke0[k]) / dl
					zetaE := 0.5 * (z0[k] + z1[k])
					adv[k] = (zetaE+f)*vt[k] - gradKE
				}
			}
			out := d.tendOut[e*nlev : (e+1)*nlev]
			ex0, ex1 := exner[c0:c0+nlev], exner[c1:c1+nlev]
			th0, th1 := s.Theta[c0:c0+nlev], s.Theta[c1:c1+nlev]
			for k := range out {
				gradPi := (ex1[k] - ex0[k]) / dl
				thetaE := 0.5 * (th0[k] + th1[k])
				out[k] = adv[k] - Cpd*thetaE*gradPi
			}
		}
	}

	d.parDiv = func(lo, hi int) {
		s := d.S
		g := s.G
		nlev := s.NLev
		for c := lo; c < hi; c++ {
			dv := d.div[c*nlev : (c+1)*nlev]
			clear(dv)
			for i, e := range g.CellEdges[c] {
				vn, o, l := s.Vn[e*nlev:(e+1)*nlev], float64(g.EdgeOrient[c][i]), g.EdgeLength[e]
				for k := range dv {
					dv[k] += o * vn[k] * l
				}
			}
			area := g.CellArea[c]
			for k := range dv {
				dv[k] /= area
			}
		}
	}

	d.parDamp = func(lo, hi int) {
		s := d.S
		g := s.G
		nlev := s.NLev
		dt := d.parDt
		for e := lo; e < hi; e++ {
			c0, c1 := g.EdgeCells[e][0]*nlev, g.EdgeCells[e][1]*nlev
			dx := g.DualLength[e]
			coef := d.DivDamp * dx * dx / dt
			vn := s.Vn[e*nlev : (e+1)*nlev]
			dv0, dv1 := d.div[c0:c0+nlev], d.div[c1:c1+nlev]
			for k := range vn {
				vn[k] += dt * coef * (dv1[k] - dv0[k]) / dx
			}
		}
	}

	d.parPred = func(lo, hi int) {
		s := d.S
		dt := d.parDt
		for i := lo; i < hi; i++ {
			d.vnPred[i] = s.Vn[i] + dt*d.vnPred[i]
		}
	}

	d.parFluxE = func(lo, hi int) {
		s := d.S
		g := s.G
		nlev := s.NLev
		for e := lo; e < hi; e++ {
			c0, c1 := g.EdgeCells[e][0], g.EdgeCells[e][1]
			for k := 0; k < nlev; k++ {
				vnAvg := 0.5 * (s.Vn[e*nlev+k] + d.vnPred[e*nlev+k])
				rhoE := 0.5 * (s.Rho[c0*nlev+k] + s.Rho[c1*nlev+k])
				f := vnAvg * rhoE
				d.MassFluxEdge[e*nlev+k] = f
				// Upstream-biased θ for stability: donor cell by flux sign.
				var thUp float64
				if f >= 0 {
					thUp = s.Theta[c0*nlev+k]
				} else {
					thUp = s.Theta[c1*nlev+k]
				}
				d.thFluxEdge[e*nlev+k] = f * thUp
			}
		}
	}

	d.parFluxC = func(lo, hi int) {
		s := d.S
		g := s.G
		nlev := s.NLev
		dt := d.parDt
		for c := lo; c < hi; c++ {
			for k := 0; k < nlev; k++ {
				var dm, dth float64
				for i, e := range g.CellEdges[c] {
					o := float64(g.EdgeOrient[c][i]) * g.EdgeLength[e]
					dm += o * d.MassFluxEdge[e*nlev+k]
					dth += o * d.thFluxEdge[e*nlev+k]
				}
				i := c*nlev + k
				s.Rho[i] -= dt * dm / g.CellArea[c]
				s.RhoTheta[i] -= dt * dth / g.CellArea[c]
			}
		}
	}

	d.parCorrExner = func(lo, hi int) {
		s := d.S
		for i := lo; i < hi; i++ {
			exn := ExnerFromRhoTheta(s.RhoTheta[i])
			d.exnerNew[i] = 0.5 * (s.Exner[i] + exn)
			s.Exner[i] = exn
			s.Theta[i] = s.RhoTheta[i] / s.Rho[i]
		}
	}

	d.parCorrVn = func(lo, hi int) {
		s := d.S
		dt := d.parDt
		for i := lo; i < hi; i++ {
			s.Vn[i] += dt * d.vnPred[i]
		}
	}

	d.parSponge = func(lo, hi int) {
		s := d.S
		nlev := s.NLev
		dt := d.parDt
		for c := lo; c < hi; c++ {
			for k := 1; k <= d.SpongeLevels && k < nlev; k++ {
				rate := d.SpongeCoeff * float64(d.SpongeLevels-k+1) / float64(d.SpongeLevels)
				s.W[c*(nlev+1)+k] /= 1 + dt*rate
			}
		}
	}

	d.parVSolve = func(slot, lo, hi int) {
		s := d.S
		nlev := s.NLev
		vert := s.Vert
		dt := d.parDt
		wgt := d.ImplicitWeight
		stride := nlev + 1
		thA := d.thA[slot*stride : (slot+1)*stride]
		thB := d.thB[slot*stride : (slot+1)*stride]
		thC := d.thC[slot*stride : (slot+1)*stride]
		thD := d.thD[slot*stride : (slot+1)*stride]
		for c := lo; c < hi; c++ {
			base := c * nlev
			wbase := c * (nlev + 1)
			// Interface quantities (1..nlev-1): θᵢ, ψ=(ρθ)ᵢ, ρᵢ.
			// γ = dΠ/d(ρθ) = (Rd/Cvd)·Π/(ρθ) at full levels.
			// Assemble tridiagonal for w⁺[1..nlev-1].
			exner1 := ExnerFromRhoTheta(s.RhoTheta[base])
			for k := 1; k < nlev; k++ {
				i0 := base + k - 1 // level above interface
				i1 := base + k     // level below
				thI := 0.5 * (s.RhoTheta[i0]/s.Rho[i0] + s.RhoTheta[i1]/s.Rho[i1])
				psiUp := 0.5 * (s.RhoTheta[i0] + s.RhoTheta[i1]) // ψ at this interface
				dzi := vert.IfaceGap(k)
				beta := dt * Cpd * thI / dzi * wgt
				exner0 := exner1 // carried down: level k−1 was the lower side of interface k−1
				exner1 = ExnerFromRhoTheta(s.RhoTheta[i1])
				gam0 := (Rd / Cvd) * exner0 / s.RhoTheta[i0]
				gam1 := (Rd / Cvd) * exner1 / s.RhoTheta[i1]
				dz0 := vert.LayerThickness(k - 1)
				dz1 := vert.LayerThickness(k)
				// ψ at neighbouring interfaces for the off-diagonals.
				var psiAbove, psiBelow float64
				if k > 1 {
					psiAbove = 0.5 * (s.RhoTheta[base+k-2] + s.RhoTheta[i0])
				}
				if k < nlev-1 {
					psiBelow = 0.5 * (s.RhoTheta[i1] + s.RhoTheta[base+k+1])
				}
				thA[k] = -beta * dt * gam0 * psiAbove / dz0
				thB[k] = 1 + beta*dt*(gam0*psiUp/dz0+gam1*psiUp/dz1)
				thC[k] = -beta * dt * gam1 * psiBelow / dz1
				thD[k] = s.W[wbase+k] - dt*Grav - (dt*Cpd*thI/dzi)*(exner0-exner1)
			}
			// Thomas algorithm, w⁺[0]=w⁺[nlev]=0.
			solveTridiag(thA[1:nlev], thB[1:nlev], thC[1:nlev], thD[1:nlev])
			s.W[wbase] = 0
			s.W[wbase+nlev] = 0
			for k := 1; k < nlev; k++ {
				s.W[wbase+k] = thD[k]
			}
			// Vertical fluxes and updates.
			// F at interface k: w⁺·ψ (for ρθ) and w⁺·ρᵢ (for ρ).
			var fThAbove, fRhoAbove float64 // flux at interface k (top of level k)
			for k := 0; k < nlev; k++ {
				var fThBelow, fRhoBelow float64
				if k < nlev-1 {
					i0 := base + k
					i1 := base + k + 1
					w := s.W[wbase+k+1]
					fThBelow = w * 0.5 * (s.RhoTheta[i0] + s.RhoTheta[i1])
					fRhoBelow = w * 0.5 * (s.Rho[i0] + s.Rho[i1])
				}
				dz := vert.LayerThickness(k)
				s.RhoTheta[base+k] += dt * (fThBelow - fThAbove) / dz
				s.Rho[base+k] += dt * (fRhoBelow - fRhoAbove) / dz
				d.MassFluxVert[wbase+k] = fRhoAbove
				fThAbove = fThBelow
				fRhoAbove = fRhoBelow
			}
			d.MassFluxVert[wbase+nlev] = 0
		}
	}

	d.bindTransport()
}

// bindHotKernels binds the z_ekinh (parKE) and Perot reconstruction
// (parUC/parVT) bodies to the SDFG-generated binders from internal/gen —
// slice-backed NPROMA blocks with the edge/cell index lookups hoisted
// out of the level loop. Storage is bound once; checkpoint restore
// copies into the same slices, so rebinding is never needed mid-run.
func (d *Dycore) bindHotKernels() {
	nlev := d.S.NLev
	t := &d.S.G.Gen
	d.parKE = gen.BindKeVn(nlev, t.Ke1, t.Ke2, t.Ke3, d.ke, d.S.Vn, t.Iel1, t.Iel2, t.Iel3)
	d.parUC = gen.BindPerotUc(nlev,
		d.px1, d.px2, d.px3, d.py1, d.py2, d.py3, d.pz1, d.pz2, d.pz3,
		d.ucx, d.ucy, d.ucz, d.S.Vn, t.Iel1, t.Iel2, t.Iel3)
	d.parVT = gen.BindPerotVt(nlev, t.Tx, t.Ty, t.Tz, d.ucx, d.ucy, d.ucz, d.vt, t.Icell1, t.Icell2)
}

// solveTridiag solves in place the tridiagonal system with sub-diagonal a,
// diagonal b, super-diagonal c and right-hand side d (overwritten with the
// solution).
func solveTridiag(a, b, c, d []float64) {
	n := len(d)
	if n == 0 {
		return
	}
	for i := 1; i < n; i++ {
		m := a[i] / b[i-1]
		b[i] -= m * c[i-1]
		d[i] -= m * d[i-1]
	}
	d[n-1] /= b[n-1]
	for i := n - 2; i >= 0; i-- {
		d[i] = (d[i] - c[i]*d[i+1]) / b[i]
	}
}
