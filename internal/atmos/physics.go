package atmos

import (
	"math"

	"icoearth/internal/sched"
)

// HeldSuarez holds the parameters of the Held & Suarez (1994) idealised
// radiative/boundary-layer forcing, the "physics" that stands in for the
// full radiation and turbulence schemes in throughput experiments.
type HeldSuarez struct {
	Ka     float64 // 1/s, free-atmosphere thermal relaxation rate
	Ks     float64 // 1/s, surface thermal relaxation rate
	Kf     float64 // 1/s, boundary-layer friction rate
	SigmaB float64 // boundary-layer top in σ
	DeltaT float64 // equator-pole temperature difference, K
	DeltaZ float64 // static-stability parameter, K
}

// DefaultHeldSuarez returns the published parameter set.
func DefaultHeldSuarez() HeldSuarez {
	return HeldSuarez{
		Ka:     1.0 / (40 * 86400),
		Ks:     1.0 / (4 * 86400),
		Kf:     1.0 / 86400,
		SigmaB: 0.7,
		DeltaT: 60,
		DeltaZ: 10,
	}
}

// TEq returns the Held–Suarez equilibrium temperature at latitude lat
// where the Exner function is exner.
func (h HeldSuarez) TEq(lat, exner float64) float64 {
	cos2 := math.Cos(lat) * math.Cos(lat)
	return h.teq(cos2, 1-cos2, exner)
}

// teq is TEq on cos²(lat) and sin²(lat) = 1 − cos²(lat), which the column
// sweep takes from a per-cell table. Held & Suarez write it in p/p0:
// (315 − ΔT·sin² − ΔZ·log(p/p0)·cos²)·(p/p0)^κ. With p/p0 = Π^(Cpd/Rd) and
// κ = Rd/Cpd the power is Π itself and the logarithm (Cpd/Rd)·Log Π.
func (h HeldSuarez) teq(cos2, sin2, exner float64) float64 {
	t := (315 - h.DeltaT*sin2 - h.DeltaZ*(Cpd/Rd*math.Log(exner))*cos2) * exner
	if t < 200 {
		t = 200
	}
	return t
}

// SurfaceBC carries the lower boundary condition supplied by the coupler:
// per-cell surface temperature and whether the surface is open water
// (ocean or lake; determines direct evaporation).
type SurfaceBC struct {
	Tsfc    []float64
	IsWater []bool
}

// SurfaceFluxes accumulates what the atmosphere hands back to the surface
// components over one physics step: all per-cell, positive downward
// (into the surface).
type SurfaceFluxes struct {
	SensibleHeat []float64 // W/m², positive = surface gains energy
	Evaporation  []float64 // kg/m²/s water leaving the surface (negative of downward)
	Precip       []float64 // kg/m²/s water reaching the surface
	WindStress   []float64 // N/m² magnitude of surface stress
	WindSpeed    []float64 // m/s lowest-level wind speed (for gas transfer)
}

// NewSurfaceFluxes allocates flux fields for ncells.
func NewSurfaceFluxes(ncells int) *SurfaceFluxes {
	return &SurfaceFluxes{
		SensibleHeat: make([]float64, ncells),
		Evaporation:  make([]float64, ncells),
		Precip:       make([]float64, ncells),
		WindStress:   make([]float64, ncells),
		WindSpeed:    make([]float64, ncells),
	}
}

// Physics bundles the column physics of the atmosphere.
type Physics struct {
	S  *State
	HS HeldSuarez

	// Bulk transfer coefficients.
	CDrag float64 // momentum
	CHeat float64 // sensible heat
	CEvap float64 // moisture

	// Autoconversion: cloud condensate above threshold rains out at Rate.
	CloudThreshold float64 // kg/kg
	AutoConvRate   float64 // 1/s

	// MoistureOn enables the water cycle (off for pure Held–Suarez runs).
	MoistureOn bool

	// Pre-bound worker-pool bodies (bound lazily on first Step so physics
	// built by struct literal also gets them); per-call parameters pass
	// through the fields below.
	parColumns func(lo, hi int)
	parFric    func(lo, hi int)
	parSurface func(lo, hi int)
	phDt       float64
	phBC       SurfaceBC
	fl         *SurfaceFluxes // returned by Step, reused every step

	// cos² and cos⁴ of the cell latitude, tabulated at bind time.
	cos2, cos4 []float64
	// pres is Pressure(Exner) per cell-level: the column sweep fills it,
	// the friction and surface sweeps read it (physics never writes Exner).
	pres []float64
}

// NewPhysics returns physics with standard parameters.
func NewPhysics(s *State) *Physics {
	return &Physics{
		S:              s,
		HS:             DefaultHeldSuarez(),
		CDrag:          1.2e-3,
		CHeat:          1.0e-3,
		CEvap:          1.2e-3,
		CloudThreshold: 2e-4,
		AutoConvRate:   1.0 / 1800,
		MoistureOn:     true,
	}
}

// SatSpecificHumidity returns the saturation mass mixing ratio over liquid
// water at temperature T (K) and pressure p (Pa), via the Magnus form of
// Clausius–Clapeyron.
func SatSpecificHumidity(T, p float64) float64 {
	es := 610.78 * math.Exp(17.27*(T-273.15)/(T-35.86))
	if es > 0.5*p {
		es = 0.5 * p
	}
	return (Rd / Rv) * es / (p - (1-Rd/Rv)*es)
}

// Step applies one physics timestep: Held–Suarez relaxation and friction,
// saturation adjustment with autoconversion, and bulk surface fluxes using
// the boundary condition bc. The returned fluxes are valid until the next
// Step. The three sweeps (columns, edges, surface cells) write disjoint
// indices and run on the worker pool.
func (p *Physics) Step(dt float64, bc SurfaceBC) *SurfaceFluxes {
	g := p.S.G
	if p.parColumns == nil {
		p.bindKernels()
	}
	fl := p.fl
	for _, f := range [][]float64{fl.SensibleHeat, fl.Evaporation, fl.Precip, fl.WindStress, fl.WindSpeed} {
		clear(f)
	}
	p.phDt, p.phBC = dt, bc
	sched.Run(g.NCells, p.parColumns)
	sched.Run(g.NEdges, p.parFric)
	sched.Run(g.NCells, p.parSurface)
	p.phBC = SurfaceBC{}
	return fl
}

// bindKernels builds the worker-pool loop bodies of the physics, its flux
// buffers, pressure scratch and latitude tables once.
func (p *Physics) bindKernels() {
	g := p.S.G
	p.fl = NewSurfaceFluxes(g.NCells)
	p.pres = make([]float64, len(p.S.Exner))
	p.cos2, p.cos4 = make([]float64, g.NCells), make([]float64, g.NCells)
	for c := range p.cos2 {
		lat, _ := g.CellCenter[c].LatLon()
		p.cos2[c] = math.Cos(lat) * math.Cos(lat)
		p.cos4[c] = math.Pow(math.Cos(lat), 4)
	}

	// Held–Suarez relaxation and saturation adjustment (per column).
	p.parColumns = func(lo, hi int) {
		s := p.S
		nlev := s.NLev
		dt, fl := p.phDt, p.fl
		for c := lo; c < hi; c++ {
			col := p.pres[c*nlev : (c+1)*nlev]
			for k := range col {
				col[k] = Pressure(s.Exner[c*nlev+k])
			}
			psfc := col[nlev-1]
			cos2, cos4 := p.cos2[c], p.cos4[c]
			sin2 := 1 - cos2
			for k := 0; k < nlev; k++ {
				i := c*nlev + k
				exn := s.Exner[i]
				pres := col[k]
				sig := pres / psfc
				T := s.Theta[i] * exn
				// Thermal relaxation.
				kt := p.HS.Ka
				if sig > p.HS.SigmaB {
					kt += (p.HS.Ks - p.HS.Ka) * cos4 * (sig - p.HS.SigmaB) / (1 - p.HS.SigmaB)
				}
				teq := p.HS.teq(cos2, sin2, exn)
				T -= dt * kt * (T - teq)

				if p.MoistureOn {
					qv := s.Tracers[TracerQV][i]
					qc := s.Tracers[TracerQC][i]
					qsat := SatSpecificHumidity(T, pres)
					gam := Lv * Lv * qsat / (Cpd * Rv * T * T)
					if qv > qsat {
						dq := (qv - qsat) / (1 + gam)
						qv -= dq
						qc += dq
						T += Lv * dq / Cpd
					} else if qc > 0 {
						// Evaporate cloud into subsaturated air.
						dq := math.Min(qc, (qsat-qv)/(1+gam))
						qv += dq
						qc -= dq
						T -= Lv * dq / Cpd
					}
					// Autoconversion to precipitation (instant fallout).
					if qc > p.CloudThreshold {
						rain := (qc - p.CloudThreshold) * math.Min(1, dt*p.AutoConvRate)
						qc -= rain
						// Column water flux to the surface.
						colMass := s.Rho[i] * s.Vert.LayerThickness(k)
						fl.Precip[c] += rain * colMass / dt
					}
					s.Tracers[TracerQV][i] = qv
					s.Tracers[TracerQC][i] = qc
				}
				// Write back via ρθ (ρ unchanged by physics).
				s.Theta[i] = T / exn
				s.RhoTheta[i] = s.Rho[i] * s.Theta[i]
			}
			s.PrecipAccum[c] += fl.Precip[c] * dt
		}
	}

	// Boundary-layer friction on vn (Held–Suarez kf).
	p.parFric = func(lo, hi int) {
		s := p.S
		g := s.G
		nlev := s.NLev
		dt := p.phDt
		for e := lo; e < hi; e++ {
			p0, p1 := p.pres[g.EdgeCells[e][0]*nlev:], p.pres[g.EdgeCells[e][1]*nlev:]
			psfc := 0.5 * (p0[nlev-1] + p1[nlev-1])
			for k := 0; k < nlev; k++ {
				pres := 0.5 * (p0[k] + p1[k])
				sig := pres / psfc
				if sig <= p.HS.SigmaB {
					continue
				}
				kv := p.HS.Kf * (sig - p.HS.SigmaB) / (1 - p.HS.SigmaB)
				s.Vn[e*nlev+k] /= 1 + dt*kv
			}
		}
	}

	// Bulk surface fluxes on the lowest level.
	p.parSurface = func(lo, hi int) {
		s := p.S
		g := s.G
		nlev := s.NLev
		kl := nlev - 1
		dt, bc, fl := p.phDt, p.phBC, p.fl
		for c := lo; c < hi; c++ {
			i := c*nlev + kl
			exn := s.Exner[i]
			T := s.Theta[i] * exn
			pres := p.pres[i]
			// Wind speed from reconstructed kinetic energy of the lowest level.
			var ke float64
			for j, e := range g.CellEdges[c] {
				v := s.Vn[e*nlev+kl]
				ke += g.KineticCoeff[c][j] * v * v
			}
			speed := math.Sqrt(2*ke) + 1 // gustiness floor 1 m/s
			fl.WindSpeed[c] = speed
			rho := s.Rho[i]
			fl.WindStress[c] = rho * p.CDrag * speed * speed

			if bc.Tsfc != nil {
				ts := bc.Tsfc[c]
				// Sensible heat: positive when the surface is warmer loses heat
				// upward, i.e. atmosphere gains; sign convention here is
				// positive downward (into surface).
				h := rho * Cpd * p.CHeat * speed * (T - ts) // >0: atm warmer → surface gains
				fl.SensibleHeat[c] = h
				dz := s.Vert.LayerThickness(kl)
				dT := -h / (rho * Cpd * dz) * dt
				Tn := T + dT
				s.Theta[i] = Tn / exn
				s.RhoTheta[i] = rho * s.Theta[i]

				if p.MoistureOn && bc.IsWater != nil && bc.IsWater[c] {
					qsatS := SatSpecificHumidity(ts, pres)
					qv := s.Tracers[TracerQV][i]
					ev := rho * p.CEvap * speed * (qsatS - qv)
					if ev < 0 {
						ev = 0 // no dew for simplicity
					}
					fl.Evaporation[c] = ev
					s.Tracers[TracerQV][i] = qv + ev*dt/(rho*dz)
				}
			}
		}
	}
}

// ApplyTracerSurfaceFlux adds a surface mass flux (kg/m²/s, positive into
// the atmosphere) of tracer t to the lowest model level; used by the
// coupler for CO₂ exchange with land and ocean.
func (p *Physics) ApplyTracerSurfaceFlux(t int, flux []float64, dt float64) {
	s := p.S
	nlev := s.NLev
	kl := nlev - 1
	dz := s.Vert.LayerThickness(kl)
	for c := 0; c < s.G.NCells; c++ {
		i := c*nlev + kl
		s.Tracers[t][i] += flux[c] * dt / (s.Rho[i] * dz)
		if s.Tracers[t][i] < 0 {
			s.Tracers[t][i] = 0
		}
	}
}

// ColumnCO2Mass returns ∫ρ·qCO₂ dz per cell (kg/m²); the coupler uses the
// global integral for carbon conservation accounting.
func (p *Physics) ColumnCO2Mass(c int) float64 {
	s := p.S
	nlev := s.NLev
	var m float64
	for k := 0; k < nlev; k++ {
		i := c*nlev + k
		m += s.Rho[i] * s.Tracers[TracerCO2][i] * s.Vert.LayerThickness(k)
	}
	return m
}
