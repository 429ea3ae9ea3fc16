package ocean

import (
	"math"

	"icoearth/internal/grid"
	"icoearth/internal/sched"
	"icoearth/internal/sphere"
)

// Forcing carries the surface boundary conditions handed over by the
// coupler at each coupling step, all on compact ocean-cell indexing.
type Forcing struct {
	HeatFlux   []float64 // W/m², positive = ocean gains heat
	Freshwater []float64 // kg/m²/s, positive = ocean gains water (P−E+runoff)
	WindStress []float64 // N/m², eastward surface stress magnitude proxy
	WindSpeed  []float64 // m/s (used by the gas-transfer law in bgc)
}

// NewForcing allocates zero forcing for n ocean cells.
func NewForcing(n int) *Forcing {
	return &Forcing{
		HeatFlux:   make([]float64, n),
		Freshwater: make([]float64, n),
		WindStress: make([]float64, n),
		WindSpeed:  make([]float64, n),
	}
}

// Dynamics advances the ocean state; it owns the barotropic solver and the
// scratch space of the baroclinic step. All kernels run as blocked loops
// on the shared worker pool: cell/edge sweeps are elementwise-disjoint
// with levels innermost, the transport sweep forms each cell's new column
// from old columns into an output buffer nobody else writes, and column
// sweeps take their scratch per worker slot — every decomposition is
// worker-count-invariant, so ocean results are bit-identical at any width.
type Dynamics struct {
	S  *State
	Op *BarotropicOp

	// Solver, when non-nil, replaces Op for the barotropic solve (the
	// rank-distributed DistBarotropic installs itself here); Op still
	// supplies the coefficients and scratch of the baroclinic step.
	Solver BarotropicSolver

	// Mixing parameters.
	VertDiffT  float64 // vertical diffusivity for T/S, m²/s
	BottomDrag float64 // quadratic bottom drag coefficient

	CGTol     float64
	CGMaxIter int

	// Last solve statistics (inspected by the perf model: iterations ×
	// global reductions per ocean step).
	LastSolve SolveStats

	// Coriolis at ocean edges; Perot weights for the barotropic mode.
	fEdge []float64

	// Geometry tables: reciprocal cell volume per cell×level, and the
	// factorised vertical-diffusion tridiagonal per wet-depth class (see
	// ensureTri), valid for the (dt, VertDiffT) bit patterns in triKey.
	rvol             []float64
	triM, triR, triC []float64
	triKey           [2]uint64

	// Scratch.
	rhs   []float64
	eFlux []float64        // barotropic volume flux per edge
	w     []float64        // level divergence, one stripe per worker slot
	pad   []float64        // all-zero columns, trGroup per worker slot: unused solveColumns lanes
	coef  [][nCoef]float64 // transport-sweep weights per cell×level
	trOut []float64        // transport-sweep output, trGroup fields
	pBar  []float64        // baroclinic pressure anomaly / ρ0, per cell×level

	// Pre-bound worker-pool bodies; per-call parameters pass through the
	// fields below so steady-state dispatch is allocation-free.
	parPBar, parMomentum   func(lo, hi int)
	parRhsEdge, parRhsCell func(lo, hi int)
	parUbCorr              func(lo, hi int)
	parVolFlux             func(lo, hi int)
	parContinuity, parMix  func(slot, lo, hi int)
	parConv                func(lo, hi int)
	parCoef                func(lo, hi int)
	parTr                  func(slot, lo, hi int)
	parTrCopy              func(lo, hi int)
	stepDt                 float64
	stepF                  *Forcing
	trQ                    [][]float64  // the sweep's current tracer group
	trDiffuse              bool         // sweep ends with the diffusion solve
	qs                     [2][]float64 // argument vector of the one- and two-field sweeps
}

// NewDynamics builds the ocean dynamics for timestep dt (the barotropic
// coefficients depend on dt; use one Dynamics per timestep size).
func NewDynamics(s *State, dt float64) *Dynamics {
	d := &Dynamics{
		S:          s,
		Op:         NewBarotropicOp(s, dt),
		VertDiffT:  1e-4,
		BottomDrag: 1e-3,
		CGTol:      1e-8,
		CGMaxIter:  2000,
	}
	n, ne, nlev := s.NOcean(), s.NEdgesOcean(), s.NLev
	d.rhs = make([]float64, n)
	d.eFlux = make([]float64, ne)
	d.pBar = make([]float64, n*nlev)
	d.trOut = make([]float64, trGroup*n*nlev)
	d.coef = make([][nCoef]float64, n*nlev)
	d.rvol = make([]float64, n*nlev)
	for i, c := range s.Cells {
		for k := 0; k < nlev; k++ {
			d.rvol[i*nlev+k] = 1 / (s.G.CellArea[c] * s.Vert.Thickness(k))
		}
	}
	d.fEdge = make([]float64, ne)
	for ei, e := range s.Edges {
		lat, _ := s.G.EdgeCenter[e].LatLon()
		d.fEdge[ei] = 2 * OmegaEarth * math.Sin(lat)
	}
	d.bindKernels()
	return d
}

// ensureColumnScratch sizes the per-worker-slot column stripes; stable
// once the pool configuration settles.
func (d *Dynamics) ensureColumnScratch() {
	nlev := d.S.NLev
	if need := sched.Slots() * (nlev + 1); len(d.w) < need {
		d.w = make([]float64, need)
	}
	if need := sched.Slots() * trGroup * nlev; len(d.pad) < need {
		d.pad = make([]float64, need)
	}
}

// Step advances the ocean by dt with surface forcing f.
func (d *Dynamics) Step(dt float64, f *Forcing) error {
	d.baroclinicPressure()
	d.momentum(dt, f)
	if err := d.barotropic(dt, f); err != nil {
		return err
	}
	d.advectTS(dt)
	d.verticalMixing(dt, f)
	d.convectiveAdjust()
	d.SeaIceStep(dt, f)
	return nil
}

// baroclinicPressure integrates the hydrostatic pressure anomaly
// p'(k)/ρ0 = g/ρ0 Σ_{m≤k} ρ'(m)·Δz downward; columns are independent.
func (d *Dynamics) baroclinicPressure() {
	sched.Run(len(d.S.Cells), d.parPBar)
}

// momentum updates the baroclinic velocity: baroclinic pressure gradient,
// Coriolis (via a simple tangential proxy), vertical viscosity with wind
// stress and bottom drag. Edge-parallel; each edge owns its U column.
func (d *Dynamics) momentum(dt float64, f *Forcing) {
	d.stepDt, d.stepF = dt, f
	sched.Run(len(d.S.Edges), d.parMomentum)
	d.stepF = nil
}

// barotropic performs the semi-implicit free-surface update: assembles the
// rhs from the depth-integrated transport divergence, solves the global
// elliptic system for η, and corrects the barotropic velocity. The rhs is
// assembled gather-style — edge transports first (edge-parallel), then a
// cell-parallel fold over each cell's edges in ascending order, the exact
// arrival order of the former serial edge scatter.
func (d *Dynamics) barotropic(dt float64, f *Forcing) error {
	s := d.S
	d.stepDt, d.stepF = dt, f
	sched.Run(len(s.Edges), d.parRhsEdge)
	sched.Run(len(s.Cells), d.parRhsCell)
	solver := BarotropicSolver(d.Op)
	if d.Solver != nil {
		solver = d.Solver
	}
	st, err := solver.Solve(d.rhs, s.Eta, d.CGTol, d.CGMaxIter)
	d.LastSolve = st
	if err != nil {
		d.stepF = nil
		return err
	}
	// Barotropic velocity correction: ub += −gΔt·∂nη with drag.
	sched.Run(len(s.Edges), d.parUbCorr)
	d.stepF = nil
	return nil
}

// advectTS transports temperature and salinity with the donor-cell upwind
// fluxes of the total (baroclinic+barotropic) velocity and of the
// continuity-implied vertical velocity, storing both mass fluxes for the
// BGC tracers. Three passes: the edge volume fluxes (edge-parallel),
// continuity column by column, then the transport sweep for T and S.
func (d *Dynamics) advectTS(dt float64) {
	d.ensureColumnScratch()
	sched.Run(len(d.S.Edges), d.parVolFlux)
	sched.RunIndexed(len(d.S.Cells), d.parContinuity)
	d.qs[0], d.qs[1] = d.S.Temp, d.S.Salt
	d.sweepTracers(d.qs[:], dt, false)
}

// verticalMixing applies implicit vertical diffusion to T and S, with the
// surface heat and freshwater fluxes as top boundary conditions.
func (d *Dynamics) verticalMixing(dt float64, f *Forcing) {
	d.ensureColumnScratch()
	d.ensureTri(dt)
	d.stepDt, d.stepF = dt, f
	sched.RunIndexed(len(d.S.Cells), d.parMix)
	d.stepF = nil
}

// convectiveAdjust removes static instability by mixing adjacent levels.
func (d *Dynamics) convectiveAdjust() {
	sched.Run(len(d.S.Cells), d.parConv)
}

// bindKernels builds the worker-pool loop bodies once.
func (d *Dynamics) bindKernels() {
	d.parPBar = func(lo, hi int) {
		s := d.S
		nlev := s.NLev
		for i := lo; i < hi; i++ {
			var p float64
			for k := 0; k < nlev; k++ {
				rhoPrime := s.Density(i, k) - RhoWater
				p += GravO * rhoPrime / RhoWater * s.Vert.Thickness(k) * 0.5
				d.pBar[i*nlev+k] = p
				p += GravO * rhoPrime / RhoWater * s.Vert.Thickness(k) * 0.5
			}
		}
	}

	d.parMomentum = func(lo, hi int) {
		s := d.S
		g := s.G
		nlev := s.NLev
		dt, f := d.stepDt, d.stepF
		for ei := lo; ei < hi; ei++ {
			e := s.Edges[ei]
			c0, c1 := s.EdgeCells[ei][0], s.EdgeCells[ei][1]
			wet := min(s.WetLevels(c0), s.WetLevels(c1))
			for k := 0; k < wet; k++ {
				gradP := (d.pBar[c1*nlev+k] - d.pBar[c0*nlev+k]) / g.DualLength[e]
				u := s.U[ei*nlev+k]
				// Semi-implicit Coriolis on the normal component damps the
				// inertial mode without a full tangential reconstruction (the
				// barotropic gyre circulation is driven by wind-stress curl
				// entering through the edge-local stress projection below).
				fcor := d.fEdge[ei]
				u = (u - dt*gradP) / (1 + dt*dt*fcor*fcor)
				s.U[ei*nlev+k] = u
			}
			// Wind stress accelerates the top layer along the edge normal
			// (projection of an eastward stress).
			east := eastComponentOcean(g, e)
			tau := 0.5 * (f.WindStress[c0] + f.WindStress[c1]) * east
			dz0 := s.Vert.Thickness(0)
			s.U[ei*nlev] += dt * tau / (RhoWater * dz0)
			// Quadratic bottom drag on the deepest wet level.
			kb := wet - 1
			ub := s.U[ei*nlev+kb]
			s.U[ei*nlev+kb] = ub / (1 + dt*d.BottomDrag*math.Abs(ub)/s.Vert.Thickness(kb))
			// Zero below the bottom.
			for k := wet; k < nlev; k++ {
				s.U[ei*nlev+k] = 0
			}
		}
	}

	// Depth-integrated transport flux U_e·l_e·Δt per edge.
	d.parRhsEdge = func(lo, hi int) {
		s := d.S
		g := s.G
		nlev := s.NLev
		dt := d.stepDt
		for ei := lo; ei < hi; ei++ {
			e := s.Edges[ei]
			c0, c1 := s.EdgeCells[ei][0], s.EdgeCells[ei][1]
			wet := min(s.WetLevels(c0), s.WetLevels(c1))
			h := 0.5 * (s.Depth[c0] + s.Depth[c1])
			var transport float64
			for k := 0; k < wet; k++ {
				transport += s.U[ei*nlev+k] * s.Vert.Thickness(k)
			}
			transport += s.Ub[ei] * h
			d.eFlux[ei] = dt * transport * g.EdgeLength[e]
		}
	}

	// rhs per cell: η·A + freshwater source, minus/plus its edge fluxes in
	// ascending edge order (the serial scatter's arrival order).
	d.parRhsCell = func(lo, hi int) {
		s := d.S
		g := s.G
		dt, f := d.stepDt, d.stepF
		for i := lo; i < hi; i++ {
			c := s.Cells[i]
			v := s.Eta[i] * g.CellArea[c]
			// Freshwater volume source.
			v += dt * f.Freshwater[i] / RhoWater * g.CellArea[c]
			for _, ref := range d.Op.refs[d.Op.refStart[i]:d.Op.refStart[i+1]] {
				if ref&1 == 0 {
					v -= d.eFlux[ref>>1]
				} else {
					v += d.eFlux[ref>>1]
				}
			}
			d.rhs[i] = v
		}
	}

	d.parUbCorr = func(lo, hi int) {
		s := d.S
		g := s.G
		dt := d.stepDt
		for ei := lo; ei < hi; ei++ {
			e := s.Edges[ei]
			c0, c1 := s.EdgeCells[ei][0], s.EdgeCells[ei][1]
			gradEta := (s.Eta[c1] - s.Eta[c0]) / g.DualLength[e]
			ub := s.Ub[ei] - dt*GravO*gradEta
			// Linear drag keeps the barotropic mode bounded.
			s.Ub[ei] = ub / (1 + dt*1e-6)
		}
	}

	// Volume flux per edge×level (m³/s), zero below the shallower bottom.
	d.parVolFlux = func(lo, hi int) {
		s := d.S
		g := s.G
		nlev := s.NLev
		for ei := lo; ei < hi; ei++ {
			c0, c1 := s.EdgeCells[ei][0], s.EdgeCells[ei][1]
			bottom := math.Min(s.Depth[c0], s.Depth[c1])
			length := g.EdgeLength[s.Edges[ei]]
			for k := 0; k < nlev; k++ {
				var vol float64
				if s.Vert.ZIface[k] < bottom {
					vol = (s.U[ei*nlev+k] + s.Ub[ei]) * length * s.Vert.Thickness(k)
				}
				s.MassFluxEdge[ei*nlev+k] = vol
			}
		}
	}

	// Vertical volume fluxes from continuity (integrate the horizontal
	// divergence from the bottom); columns are independent.
	d.parContinuity = func(slot, lo, hi int) {
		s := d.S
		g := s.G
		nlev := s.NLev
		w := d.w[slot*(nlev+1) : (slot+1)*(nlev+1)]
		for i := lo; i < hi; i++ {
			c := s.Cells[i]
			wet := s.WetLevels(i)
			// Volume divergence per level.
			for k := 0; k < nlev; k++ {
				w[k] = 0
			}
			for _, e := range g.CellEdges[c] {
				ei := s.EdgeIndex[e]
				if ei < 0 {
					continue
				}
				sign := -1.0
				if s.EdgeCells[ei][0] == i {
					sign = 1.0 // flux leaves cell i when positive
				}
				for k := 0; k < wet; k++ {
					w[k] += sign * s.MassFluxEdge[ei*nlev+k]
				}
			}
			// Vertical volume flux through interfaces (positive up) from
			// continuity, integrating from the bottom: V_k = V_{k+1} − export_k.
			var cum float64
			s.MassFluxVert[i*(nlev+1)+wet] = 0
			for k := wet - 1; k >= 1; k-- {
				cum -= w[k] // w[k] is the net volume export of level k
				s.MassFluxVert[i*(nlev+1)+k] = cum
			}
			s.MassFluxVert[i*(nlev+1)] = 0
		}
	}

	// Surface sources enter the top level, then T and S share one solve.
	d.parMix = func(slot, lo, hi int) {
		s := d.S
		nlev := s.NLev
		dt, f := d.stepDt, d.stepF
		dz0 := s.Vert.Thickness(0)
		pad := d.pad[slot*trGroup*nlev:]
		cols := [trGroup][]float64{2: pad[:nlev], 3: pad[nlev : 2*nlev]}
		for i := lo; i < hi; i++ {
			temp, salt := s.Temp[i*nlev:(i+1)*nlev], s.Salt[i*nlev:(i+1)*nlev]
			temp[0] += dt * f.HeatFlux[i] / (RhoWater * CpWater * dz0)
			wet := s.WetLevels(i)
			if wet < 2 {
				continue
			}
			// Freshwater flux dilutes surface salinity: dS = −S·Fw/(ρ·dz).
			salt[0] += -dt * salt[0] * f.Freshwater[i] / (RhoWater * dz0)
			cols[0], cols[1] = temp, salt
			d.solveColumns(wet, &cols)
		}
	}

	d.parConv = func(lo, hi int) {
		s := d.S
		nlev := s.NLev
		for i := lo; i < hi; i++ {
			wet := s.WetLevels(i)
			for pass := 0; pass < 2; pass++ {
				for k := 0; k < wet-1; k++ {
					if s.Density(i, k) > s.Density(i, k+1)+1e-12 {
						dz0, dz1 := s.Vert.Thickness(k), s.Vert.Thickness(k+1)
						wsum := dz0 + dz1
						tm := (s.Temp[i*nlev+k]*dz0 + s.Temp[i*nlev+k+1]*dz1) / wsum
						sm := (s.Salt[i*nlev+k]*dz0 + s.Salt[i*nlev+k+1]*dz1) / wsum
						s.Temp[i*nlev+k], s.Temp[i*nlev+k+1] = tm, tm
						s.Salt[i*nlev+k], s.Salt[i*nlev+k+1] = sm, sm
					}
				}
			}
		}
	}

	d.parCoef, d.parTr, d.parTrCopy = d.coefCells, d.stencilCells, d.copyBackCells
}

// eastComponentOcean projects local east onto the normal of edge e.
func eastComponentOcean(g *grid.Grid, e int) float64 {
	p := g.EdgeCenter[e]
	east := sphere.TangentEast(p)
	return east.Dot(g.EdgeNormal[e])
}
