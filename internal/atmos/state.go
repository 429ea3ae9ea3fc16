// Package atmos implements the nonhydrostatic atmosphere component: a
// compressible ρ–θ–vn–w dynamical core on the icosahedral-triangular C-grid
// with two-time-level predictor–corrector stepping and a vertically
// implicit acoustic solver (the structure of ICON's dynamical core,
// Giorgetta et al. 2018), flux-form tracer transport for H₂O, CO₂ and O₃,
// and simple column physics (Held–Suarez radiative relaxation, boundary
// layer friction, saturation adjustment with precipitation, and bulk
// surface fluxes).
//
// Fields are stored cell-major with levels contiguous (index c*nlev+k,
// k=0 the model top), the memory layout ICON uses on GPUs; edge fields use
// e*nlev+k.
package atmos

import (
	"fmt"
	"math"

	"icoearth/internal/grid"
	"icoearth/internal/sched"
	"icoearth/internal/vertical"
)

// Physical constants (ICON values).
const (
	Cpd   = 1004.64  // specific heat of dry air at constant pressure, J/(kg K)
	Rd    = 287.04   // gas constant of dry air, J/(kg K)
	Cvd   = Cpd - Rd // constant-volume specific heat
	P0    = 1.0e5    // reference pressure, Pa
	Grav  = 9.80665  // gravity, m/s²
	Omega = 7.29212e-5
	Lv    = 2.5008e6 // latent heat of vaporisation, J/kg
	Rv    = 461.51   // gas constant of water vapour
)

// Tracer indices.
const (
	TracerQV = iota // water vapour (+ cloud condensate after adjustment)
	TracerQC        // cloud condensate
	TracerCO2
	TracerO3
	NumTracers
)

// State holds the prognostic and main diagnostic fields of the atmosphere.
type State struct {
	G    *grid.Grid
	Vert *vertical.Atmosphere
	NLev int

	// Prognostic fields.
	Rho      []float64             // density at cells [c*nlev+k]
	RhoTheta []float64             // ρθ at cells
	Vn       []float64             // normal velocity at edges [e*nlev+k]
	W        []float64             // vertical velocity at interfaces [c*(nlev+1)+k]
	Tracers  [NumTracers][]float64 // mass mixing ratios at cells

	// Diagnostics (updated every step).
	Exner []float64 // Exner pressure Π at cells
	// Theta is θ. UpdateDiagnostics (the step's first launch) and the
	// corrector's Exner refresh set it to RhoTheta/Rho, and until ρ or ρθ is
	// next written the predictor, the horizontal flux sweep and the
	// corrector read it in place of that quotient. Physics and radiation
	// store the θ they computed and rebuild RhoTheta from it, so from there
	// to the next refresh it is the quotient to rounding only.
	Theta []float64

	// Accumulated surface precipitation flux per cell (kg/m², since start).
	PrecipAccum []float64

	// parDiag is the pre-bound UpdateDiagnostics loop body (bound lazily so
	// states built by struct literal in tests also get it).
	parDiag func(lo, hi int)
}

// NewState allocates a state on grid g with nlev levels.
func NewState(g *grid.Grid, vert *vertical.Atmosphere) *State {
	nlev := vert.NLev
	s := &State{
		G:           g,
		Vert:        vert,
		NLev:        nlev,
		Rho:         make([]float64, g.NCells*nlev),
		RhoTheta:    make([]float64, g.NCells*nlev),
		Vn:          make([]float64, g.NEdges*nlev),
		W:           make([]float64, g.NCells*(nlev+1)),
		Exner:       make([]float64, g.NCells*nlev),
		Theta:       make([]float64, g.NCells*nlev),
		PrecipAccum: make([]float64, g.NCells),
	}
	for t := range s.Tracers {
		s.Tracers[t] = make([]float64, g.NCells*nlev)
	}
	return s
}

// ExnerFromRhoTheta computes Π = (Rd·ρθ/p0)^(Rd/Cvd), the equation of
// state of the ρθ formulation. The body is math.Pow(x, Rd/Cvd) with its
// dead branches removed: for an exponent in (0, ½) Pow's integer part is
// zero, its squaring loop does not run and its closing Ldexp(·, 0) is the
// identity, leaving Exp(y·Log(x)) — the same bits for every x but −Inf
// (NaN here, +Inf from Pow), which is outside the domain: ρθ is positive
// or CheckFinite has already failed the step.
func ExnerFromRhoTheta(rhoTheta float64) float64 {
	return math.Exp(Rd / Cvd * math.Log(Rd*rhoTheta/P0))
}

// Pressure returns p = p0·Π^(Cpd/Rd). Cpd/Rd is 3.5 exactly, so the power
// is Π³·√Π: three multiplies and a square root, no Log and no Exp.
func Pressure(exner float64) float64 {
	return P0 * (exner * exner * exner) * math.Sqrt(exner)
}

// Temperature returns T = θ·Π.
func Temperature(theta, exner float64) float64 { return theta * exner }

// UpdateDiagnostics refreshes Exner and Theta from the prognostics. The
// update is elementwise (one Log and one Exp per cell-level) and runs on
// the worker pool.
func (s *State) UpdateDiagnostics() {
	if s.parDiag == nil {
		s.parDiag = func(lo, hi int) {
			for i := lo; i < hi; i++ {
				s.Exner[i] = ExnerFromRhoTheta(s.RhoTheta[i])
				s.Theta[i] = s.RhoTheta[i] / s.Rho[i]
			}
		}
	}
	sched.Run(len(s.Rho), s.parDiag)
}

// InitIsothermalRest sets a horizontally uniform, discretely hydrostatic
// state of rest with surface temperature t0. The discrete balance
// Cpd·θᵢ·(Π[k-1]−Π[k])/Δzᵢ = −g holds exactly level by level, so the
// dynamical core must preserve the state to machine precision — the
// fundamental "well-balancedness" test of the solver.
func (s *State) InitIsothermalRest(t0 float64) {
	nlev := s.NLev
	theta := make([]float64, nlev)
	exner := make([]float64, nlev)
	// Isothermal: T = t0 everywhere, so θ(z) = t0/Π(z). Integrate the
	// discrete hydrostatic relation downward from the top.
	// Analytic seed at the top full level:
	// p(z) = p0·exp(−g·z/(Rd·t0)) for an isothermal atmosphere.
	zTop := s.Vert.ZFull[0]
	pTop := P0 * math.Exp(-Grav*zTop/(Rd*t0))
	exner[0] = math.Pow(pTop/P0, Rd/Cpd)
	theta[0] = t0 / exner[0]
	for k := 1; k < nlev; k++ {
		dz := s.Vert.IfaceGap(k)
		// Solve Cpd·0.5·(θ[k-1]+θ[k])·(Π[k]−Π[k-1]) = g·dz with
		// θ[k] = t0/Π[k]: iterate the fixed point (converges fast).
		pk := exner[k-1] + Grav*dz/(Cpd*theta[k-1])
		for it := 0; it < 50; it++ {
			th := 0.5 * (theta[k-1] + t0/pk)
			pkNew := exner[k-1] + Grav*dz/(Cpd*th)
			if math.Abs(pkNew-pk) < 1e-15 {
				pk = pkNew
				break
			}
			pk = pkNew
		}
		exner[k] = pk
		theta[k] = t0 / pk
	}
	for c := 0; c < s.G.NCells; c++ {
		for k := 0; k < nlev; k++ {
			i := c*nlev + k
			rhoTheta := P0 * math.Pow(exner[k], Cvd/Rd) / Rd
			s.RhoTheta[i] = rhoTheta
			s.Rho[i] = rhoTheta / theta[k]
		}
	}
	for i := range s.Vn {
		s.Vn[i] = 0
	}
	for i := range s.W {
		s.W[i] = 0
	}
	s.UpdateDiagnostics()
}

// InitBaroclinic sets the isothermal balanced state plus a zonal jet and a
// localised θ perturbation that spins up baroclinic eddies; amp is the jet
// speed in m/s. The result is not exactly balanced — it is the standard
// "spin-up" initial condition for throughput experiments.
func (s *State) InitBaroclinic(t0, amp float64) {
	s.InitIsothermalRest(t0)
	nlev := s.NLev
	for e := 0; e < s.G.NEdges; e++ {
		lat, _ := s.G.EdgeCenter[e].LatLon()
		// Zonal jet peaked at mid-latitudes.
		u := amp * math.Sin(2*lat) * math.Sin(2*lat)
		if lat < 0 {
			u = -u * 0 // northern jet only; keep the south calm
		}
		east := eastComponent(s.G, e)
		for k := 0; k < nlev; k++ {
			// Jet strongest aloft.
			prof := float64(nlev-k) / float64(nlev)
			s.Vn[e*nlev+k] = u * east * prof
		}
	}
	// θ bump (warm anomaly) near (40°N, 90°E).
	for c := 0; c < s.G.NCells; c++ {
		lat, lon := s.G.CellCenter[c].LatLon()
		d2 := (lat-0.7)*(lat-0.7) + (lon-1.57)*(lon-1.57)
		bump := 2.0 * math.Exp(-d2/0.02)
		if bump < 1e-4 {
			continue
		}
		for k := nlev / 2; k < nlev; k++ {
			i := c*nlev + k
			th := s.RhoTheta[i]/s.Rho[i] + bump
			s.RhoTheta[i] = s.Rho[i] * th
		}
	}
	s.UpdateDiagnostics()
}

// InitTracers sets idealised tracer distributions: specific humidity
// decaying with height and latitude, well-mixed CO₂ (≈420 ppm by mass
// ratio ≈ 6.4e-4), and a stratospheric O₃ layer.
func (s *State) InitTracers() {
	nlev := s.NLev
	for c := 0; c < s.G.NCells; c++ {
		lat, _ := s.G.CellCenter[c].LatLon()
		for k := 0; k < nlev; k++ {
			i := c*nlev + k
			z := s.Vert.ZFull[k]
			qsfc := 0.015 * math.Cos(lat) * math.Cos(lat)
			s.Tracers[TracerQV][i] = qsfc * math.Exp(-z/2500)
			s.Tracers[TracerQC][i] = 0
			s.Tracers[TracerCO2][i] = 6.4e-4
			// Ozone bump centred near 25 km.
			s.Tracers[TracerO3][i] = 8e-6 * math.Exp(-(z-25000)*(z-25000)/(2*6000*6000))
		}
	}
}

// eastComponent returns ê·n̂ at edge e: the projection of the local east
// direction onto the edge normal.
func eastComponent(g *grid.Grid, e int) float64 {
	p := g.EdgeCenter[e]
	east := eastVec(p.X, p.Y)
	return east[0]*g.EdgeNormal[e].X + east[1]*g.EdgeNormal[e].Y + east[2]*g.EdgeNormal[e].Z
}

func eastVec(x, y float64) [3]float64 {
	n := math.Hypot(x, y)
	if n < 1e-12 {
		return [3]float64{1, 0, 0}
	}
	return [3]float64{-y / n, x / n, 0}
}

// TotalDryMass returns ∫ρ dV: the conserved dry air mass.
func (s *State) TotalDryMass() float64 {
	var m float64
	nlev := s.NLev
	for c := 0; c < s.G.NCells; c++ {
		a := s.G.CellArea[c]
		for k := 0; k < nlev; k++ {
			m += s.Rho[c*nlev+k] * a * s.Vert.LayerThickness(k)
		}
	}
	return m
}

// TracerMass returns ∫ρ·q dV for tracer t.
func (s *State) TracerMass(t int) float64 {
	var m float64
	nlev := s.NLev
	q := s.Tracers[t]
	for c := 0; c < s.G.NCells; c++ {
		a := s.G.CellArea[c]
		for k := 0; k < nlev; k++ {
			i := c*nlev + k
			m += s.Rho[i] * q[i] * a * s.Vert.LayerThickness(k)
		}
	}
	return m
}

// MaxCourant returns the maximum horizontal acoustic Courant number
// (|vn|+cs)·Δt/Δx, the stability-limiting quantity of the explicit
// horizontal step.
func (s *State) MaxCourant(dt float64) float64 {
	cs := math.Sqrt(Cpd / Cvd * Rd * 300) // ≈ sound speed at 300 K
	var maxC float64
	nlev := s.NLev
	for e := 0; e < s.G.NEdges; e++ {
		dx := s.G.DualLength[e]
		for k := 0; k < nlev; k++ {
			c := (math.Abs(s.Vn[e*nlev+k]) + cs) * dt / dx
			if c > maxC {
				maxC = c
			}
		}
	}
	return maxC
}

// CheckFinite panics with a descriptive message if any prognostic field
// contains NaN or Inf; used by long-running tests and examples.
func (s *State) CheckFinite() error {
	check := func(name string, f []float64) error {
		for i, v := range f {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("atmos: %s[%d] = %v", name, i, v)
			}
		}
		return nil
	}
	if err := check("rho", s.Rho); err != nil {
		return err
	}
	if err := check("rhoTheta", s.RhoTheta); err != nil {
		return err
	}
	if err := check("vn", s.Vn); err != nil {
		return err
	}
	return check("w", s.W)
}
