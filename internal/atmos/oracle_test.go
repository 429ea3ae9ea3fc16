package atmos

import (
	"fmt"
	"math"
	"testing"

	"icoearth/internal/exec"
	"icoearth/internal/grid"
	"icoearth/internal/sched"
	"icoearth/internal/vertical"
)

// The reference below is the atmosphere step with none of its sharing and
// none of its blocking: every consumer evaluates its own pressure, Held–
// Suarez function and math.Cos and divides its own ρθ/ρ, the vertical solve evaluates Exner twice per
// level, the corrector rebuilds vorticity and the KE gradient, the momentum
// and damping loops are level-outer with an edge-ordered vorticity scatter,
// tracer transport is four passes per tracer through an edge flux array,
// and damping ends with a full diagnostics refresh. It runs serially on its
// own Model and reuses only production stages that have not changed since
// (ekinh, tangential, the flux divergence, the vn updates, sponge). The
// production step must reproduce it bit for bit.

// refExner is the equation of state written with math.Pow, whose bits the
// model's Exp(y·Log x) form returns (TestThermoBitsEqualMathPow).
func refExner(rhoTheta float64) float64 { return math.Pow(Rd*rhoTheta/P0, Rd/Cvd) }

// refThermo is the pressure and the Held–Suarez equilibrium temperature a
// reference step evaluates wherever it needs one.
type refThermo struct {
	pressure func(exner float64) float64
	teq      func(h HeldSuarez, cos2, sin2, exner float64) float64
}

// liveThermo is the model's arithmetic written out where it is used: the
// power 3.5 as Π³·√Π, Held–Suarez in Π. The step must reproduce a
// reference on it bit for bit.
var liveThermo = refThermo{
	pressure: func(exner float64) float64 { return P0 * (exner * exner * exner) * math.Sqrt(exner) },
	teq: func(h HeldSuarez, cos2, sin2, exner float64) float64 {
		t := (315 - h.DeltaT*sin2 - h.DeltaZ*(3.5*math.Log(exner))*cos2) * exner
		if t < 200 {
			t = 200
		}
		return t
	},
}

// powThermo is the arithmetic retired by the §17 re-baseline: pressure by
// math.Pow, Held–Suarez in σ = p/p0 with its own Log and a second Pow. The
// step must stay near a reference on it; the tests that use it name how
// near.
var powThermo = refThermo{
	pressure: powPressure,
	teq: func(h HeldSuarez, cos2, sin2, exner float64) float64 {
		return powTEq(h, cos2, sin2, powPressure(exner))
	},
}

func powPressure(exner float64) float64 { return P0 * math.Pow(exner, Cpd/Rd) }

func powTEq(h HeldSuarez, cos2, sin2, p float64) float64 {
	sig := p / P0
	t := (315 - h.DeltaT*sin2 - h.DeltaZ*math.Log(sig)*cos2) * math.Pow(sig, Rd/Cpd)
	if t < 200 {
		t = 200
	}
	return t
}

// refVnTendencies is the recomputing momentum tendency.
func refVnTendencies(d *Dycore, exner, out []float64) {
	s, g, nlev := d.S, d.S.G, d.S.NLev
	z := make([]float64, g.NVerts)
	for k := 0; k < nlev; k++ {
		clear(z)
		for e, vv := range g.EdgeVerts {
			contrib := s.Vn[e*nlev+k] * g.DualLength[e]
			z[vv[0]] -= contrib
			z[vv[1]] += contrib
		}
		for v := range z {
			z[v] /= g.DualArea[v]
		}
		for e := 0; e < g.NEdges; e++ {
			c0, c1 := g.EdgeCells[e][0], g.EdgeCells[e][1]
			i0, i1 := c0*nlev+k, c1*nlev+k
			gradPi := (exner[i1] - exner[i0]) / g.DualLength[e]
			gradKE := (d.ke[i1] - d.ke[i0]) / g.DualLength[e]
			thetaE := 0.5 * (s.RhoTheta[i0]/s.Rho[i0] + s.RhoTheta[i1]/s.Rho[i1])
			zetaE := 0.5 * (z[g.EdgeVerts[e][0]] + z[g.EdgeVerts[e][1]])
			out[e*nlev+k] = (zetaE+d.fEdge[e])*d.vt[e*nlev+k] - gradKE - Cpd*thetaE*gradPi
		}
	}
}

// refDiag is UpdateDiagnostics on refExner.
func refDiag(s *State) {
	for i := range s.Rho {
		s.Exner[i] = refExner(s.RhoTheta[i])
		s.Theta[i] = s.RhoTheta[i] / s.Rho[i]
	}
}

// refFluxE is the edge flux sweep with the donor θ divided out of ρθ/ρ.
func refFluxE(d *Dycore) {
	s, g, nlev := d.S, d.S.G, d.S.NLev
	for e := 0; e < g.NEdges; e++ {
		c0, c1 := g.EdgeCells[e][0], g.EdgeCells[e][1]
		for k := 0; k < nlev; k++ {
			vnAvg := 0.5 * (s.Vn[e*nlev+k] + d.vnPred[e*nlev+k])
			rhoE := 0.5 * (s.Rho[c0*nlev+k] + s.Rho[c1*nlev+k])
			f := vnAvg * rhoE
			d.MassFluxEdge[e*nlev+k] = f
			var thUp float64
			if f >= 0 {
				thUp = s.RhoTheta[c0*nlev+k] / s.Rho[c0*nlev+k]
			} else {
				thUp = s.RhoTheta[c1*nlev+k] / s.Rho[c1*nlev+k]
			}
			d.thFluxEdge[e*nlev+k] = f * thUp
		}
	}
}

// refDivergenceDamping is the level-outer damping: the divergence of one
// level in a cell-indexed stripe, then its gradient onto vn.
func refDivergenceDamping(d *Dycore, dt float64) {
	s, g, nlev := d.S, d.S.G, d.S.NLev
	dv := make([]float64, g.NCells)
	for k := 0; k < nlev; k++ {
		for c := 0; c < g.NCells; c++ {
			var sum float64
			for i, e := range g.CellEdges[c] {
				sum += float64(g.EdgeOrient[c][i]) * s.Vn[e*nlev+k] * g.EdgeLength[e]
			}
			dv[c] = sum / g.CellArea[c]
		}
		for e := 0; e < g.NEdges; e++ {
			c0, c1 := g.EdgeCells[e][0], g.EdgeCells[e][1]
			dx := g.DualLength[e]
			coef := d.DivDamp * dx * dx / dt
			s.Vn[e*nlev+k] += dt * coef * (dv[c1] - dv[c0]) / dx
		}
	}
}

// refTransport is tracer transport as four passes per tracer: donor-cell
// fluxes into an edge array, their divergence per cell, the vertical upwind
// per column, and the mixing-ratio update in place.
func refTransport(d *Dycore, dt float64, rhoOld []float64) {
	s, g, nlev := d.S, d.S.G, d.S.NLev
	qFlux := make([]float64, g.NEdges*nlev)
	rhoQ := make([]float64, g.NCells*nlev)
	for _, q := range s.Tracers {
		for e := 0; e < g.NEdges; e++ {
			c0, c1 := g.EdgeCells[e][0], g.EdgeCells[e][1]
			for k := 0; k < nlev; k++ {
				f := d.MassFluxEdge[e*nlev+k]
				var qUp float64
				if f >= 0 {
					qUp = q[c0*nlev+k]
				} else {
					qUp = q[c1*nlev+k]
				}
				qFlux[e*nlev+k] = f * qUp
			}
		}
		for c := 0; c < g.NCells; c++ {
			for k := 0; k < nlev; k++ {
				var df float64
				for i, e := range g.CellEdges[c] {
					df += float64(g.EdgeOrient[c][i]) * g.EdgeLength[e] * qFlux[e*nlev+k]
				}
				i := c*nlev + k
				rhoQ[i] = rhoOld[i]*q[i] - dt*df/g.CellArea[c]
			}
		}
		for c := 0; c < g.NCells; c++ {
			base, wbase := c*nlev, c*(nlev+1)
			var fAbove float64
			for k := 0; k < nlev; k++ {
				var fBelow float64
				if k < nlev-1 {
					mf := d.MassFluxVert[wbase+k+1]
					var qUp float64
					if mf >= 0 {
						qUp = q[base+k+1]
					} else {
						qUp = q[base+k]
					}
					fBelow = mf * qUp
				}
				rhoQ[base+k] += dt * (fBelow - fAbove) / s.Vert.LayerThickness(k)
				fAbove = fBelow
			}
		}
		for i := range q {
			q[i] = rhoQ[i] / s.Rho[i]
			if q[i] < 0 {
				q[i] = 0
			}
		}
	}
}

// refVerticalSolve is the implicit solve with both Exner values of every
// interface evaluated in place.
func refVerticalSolve(d *Dycore, dt float64) {
	s, nlev, vert, wgt := d.S, d.S.NLev, d.S.Vert, d.ImplicitWeight
	thA, thB := make([]float64, nlev+1), make([]float64, nlev+1)
	thC, thD := make([]float64, nlev+1), make([]float64, nlev+1)
	for c := 0; c < s.G.NCells; c++ {
		base, wbase := c*nlev, c*(nlev+1)
		for k := 1; k < nlev; k++ {
			i0, i1 := base+k-1, base+k
			thI := 0.5 * (s.RhoTheta[i0]/s.Rho[i0] + s.RhoTheta[i1]/s.Rho[i1])
			psiUp := 0.5 * (s.RhoTheta[i0] + s.RhoTheta[i1])
			dzi := vert.IfaceGap(k)
			beta := dt * Cpd * thI / dzi * wgt
			exner0 := refExner(s.RhoTheta[i0])
			exner1 := refExner(s.RhoTheta[i1])
			gam0 := (Rd / Cvd) * exner0 / s.RhoTheta[i0]
			gam1 := (Rd / Cvd) * exner1 / s.RhoTheta[i1]
			dz0, dz1 := vert.LayerThickness(k-1), vert.LayerThickness(k)
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
		solveTridiag(thA[1:nlev], thB[1:nlev], thC[1:nlev], thD[1:nlev])
		s.W[wbase], s.W[wbase+nlev] = 0, 0
		copy(s.W[wbase+1:wbase+nlev], thD[1:nlev])
		var fThAbove, fRhoAbove float64
		for k := 0; k < nlev; k++ {
			var fThBelow, fRhoBelow float64
			if k < nlev-1 {
				i0, i1 := base+k, base+k+1
				w := s.W[wbase+k+1]
				fThBelow = w * 0.5 * (s.RhoTheta[i0] + s.RhoTheta[i1])
				fRhoBelow = w * 0.5 * (s.Rho[i0] + s.Rho[i1])
			}
			dz := vert.LayerThickness(k)
			s.RhoTheta[base+k] += dt * (fThBelow - fThAbove) / dz
			s.Rho[base+k] += dt * (fRhoBelow - fRhoAbove) / dz
			d.MassFluxVert[wbase+k] = fRhoAbove
			fThAbove, fRhoAbove = fThBelow, fRhoBelow
		}
		d.MassFluxVert[wbase+nlev] = 0
	}
}

// refPhysics is the three physics sweeps with pressure, latitude and the
// Held–Suarez functions evaluated where they are used, into fresh fluxes.
func refPhysics(p *Physics, dt float64, bc SurfaceBC, th refThermo) *SurfaceFluxes {
	refPressure := th.pressure
	s, g, nlev := p.S, p.S.G, p.S.NLev
	fl := NewSurfaceFluxes(g.NCells)
	for c := 0; c < g.NCells; c++ {
		lat, _ := g.CellCenter[c].LatLon()
		psfc := refPressure(s.Exner[c*nlev+nlev-1])
		for k := 0; k < nlev; k++ {
			i := c*nlev + k
			exn := s.Exner[i]
			pres := refPressure(exn)
			sig := pres / psfc
			T := s.Theta[i] * exn
			cos4 := math.Pow(math.Cos(lat), 4)
			kt := p.HS.Ka
			if sig > p.HS.SigmaB {
				kt += (p.HS.Ks - p.HS.Ka) * cos4 * (sig - p.HS.SigmaB) / (1 - p.HS.SigmaB)
			}
			cos2 := math.Cos(lat) * math.Cos(lat)
			teq := th.teq(p.HS, cos2, 1-cos2, exn)
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
					dq := math.Min(qc, (qsat-qv)/(1+gam))
					qv += dq
					qc -= dq
					T -= Lv * dq / Cpd
				}
				if qc > p.CloudThreshold {
					rain := (qc - p.CloudThreshold) * math.Min(1, dt*p.AutoConvRate)
					qc -= rain
					colMass := s.Rho[i] * s.Vert.LayerThickness(k)
					fl.Precip[c] += rain * colMass / dt
				}
				s.Tracers[TracerQV][i] = qv
				s.Tracers[TracerQC][i] = qc
			}
			s.Theta[i] = T / exn
			s.RhoTheta[i] = s.Rho[i] * s.Theta[i]
		}
		s.PrecipAccum[c] += fl.Precip[c] * dt
	}
	for e := 0; e < g.NEdges; e++ {
		c0, c1 := g.EdgeCells[e][0], g.EdgeCells[e][1]
		psfc := 0.5 * (refPressure(s.Exner[c0*nlev+nlev-1]) + refPressure(s.Exner[c1*nlev+nlev-1]))
		for k := 0; k < nlev; k++ {
			pres := 0.5 * (refPressure(s.Exner[c0*nlev+k]) + refPressure(s.Exner[c1*nlev+k]))
			sig := pres / psfc
			if sig <= p.HS.SigmaB {
				continue
			}
			kv := p.HS.Kf * (sig - p.HS.SigmaB) / (1 - p.HS.SigmaB)
			s.Vn[e*nlev+k] /= 1 + dt*kv
		}
	}
	kl := nlev - 1
	for c := 0; c < g.NCells; c++ {
		i := c*nlev + kl
		exn := s.Exner[i]
		T := s.Theta[i] * exn
		pres := refPressure(exn)
		var ke float64
		for j, e := range g.CellEdges[c] {
			v := s.Vn[e*nlev+kl]
			ke += g.KineticCoeff[c][j] * v * v
		}
		speed := math.Sqrt(2*ke) + 1
		fl.WindSpeed[c] = speed
		rho := s.Rho[i]
		fl.WindStress[c] = rho * p.CDrag * speed * speed
		if bc.Tsfc != nil {
			ts := bc.Tsfc[c]
			h := rho * Cpd * p.CHeat * speed * (T - ts)
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
					ev = 0
				}
				fl.Evaporation[c] = ev
				s.Tracers[TracerQV][i] = qv + ev*dt/(rho*dz)
			}
		}
	}
	return fl
}

// refStep is Model.Step in the launch order of the model, with the
// reference pieces in place of the shared-value ones, on the model's
// thermodynamic arithmetic.
func refStep(m *Model, dt float64, bc SurfaceBC) *SurfaceFluxes {
	return refStepOn(m, dt, bc, liveThermo)
}

func refStepOn(m *Model, dt float64, bc SurfaceBC, th refThermo) *SurfaceFluxes {
	s, d := m.State, m.Dyn
	copy(m.rhoOld, s.Rho)
	refDiag(s)
	d.KineticEnergyKernel()
	d.TangentialKernel()
	refVnTendencies(d, s.Exner, d.vnPred)
	d.parDt = dt
	sched.Run(len(d.vnPred), d.parPred)
	refFluxE(d)
	sched.Run(s.G.NCells, d.parFluxC)
	refVerticalSolve(d, dt)
	for i := range d.exnerNew {
		d.exnerNew[i] = 0.5 * (s.Exner[i] + refExner(s.RhoTheta[i]))
	}
	refVnTendencies(d, d.exnerNew, d.vnPred)
	sched.Run(len(s.Vn), d.parCorrVn)
	refDivergenceDamping(d, dt)
	d.sponge(dt)
	refDiag(s)
	refTransport(d, dt, m.rhoOld)
	return refPhysics(m.Phys, dt, bc, th)
}

// oracleModel builds the fixture the byte-equality tests step: R2B2, 12
// levels, baroclinic jet, moisture on, and a lower boundary that mixes
// open water and land with a meridional surface-temperature gradient.
func oracleModel() (*Model, SurfaceBC) { return oracleModelLevels(12) }

// oracleModelLevels is the fixture at another level count; one level is a
// single 30 km layer, which vertical.NewAtmosphere does not build.
func oracleModelLevels(nlev int) (*Model, SurfaceBC) {
	g := grid.New(grid.R2B(2))
	vert := &vertical.Atmosphere{NLev: 1, Top: 30000, ZIface: []float64{30000, 0}, ZFull: []float64{15000}, DecayScale: 15000}
	if nlev > 1 {
		vert = vertical.NewAtmosphere(nlev, 30000, 300)
	}
	dev := exec.NewDevice(exec.DeviceSpec{Name: "gpu", MemBW: 1e12, LaunchLatency: 1e-6, HalfSatBytes: 1e6, PowerIdle: 10, PowerMax: 100})
	m := NewModel(g, vert, dev)
	m.State.InitBaroclinic(288, 30)
	m.State.InitTracers()
	bc := SurfaceBC{Tsfc: make([]float64, g.NCells), IsWater: make([]bool, g.NCells)}
	for c := range bc.Tsfc {
		lat, _ := g.CellCenter[c].LatLon()
		bc.Tsfc[c] = 272 + 30*math.Cos(lat)
		bc.IsWater[c] = c%3 != 0
	}
	return m, bc
}

// modelFields names every prognostic, diagnostic and mass-flux field of a
// model for bitwise comparison.
func modelFields(m *Model) map[string][]float64 {
	s := m.State
	return map[string][]float64{
		"rho": s.Rho, "rhotheta": s.RhoTheta, "vn": s.Vn, "w": s.W,
		"qv": s.Tracers[TracerQV], "qc": s.Tracers[TracerQC],
		"co2": s.Tracers[TracerCO2], "o3": s.Tracers[TracerO3],
		"exner": s.Exner, "theta": s.Theta, "precip_accum": s.PrecipAccum,
		"massflux": m.Dyn.MassFluxEdge, "massflux_v": m.Dyn.MassFluxVert,
	}
}

func fluxFields(fl *SurfaceFluxes) map[string][]float64 {
	return map[string][]float64{
		"sensible": fl.SensibleHeat, "evaporation": fl.Evaporation, "precip": fl.Precip,
		"stress": fl.WindStress, "speed": fl.WindSpeed,
	}
}

// requireSameBits fails on the first element of any field whose %x
// rendering differs between got and want.
func requireSameBits(t *testing.T, what string, got, want map[string][]float64) {
	t.Helper()
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Fatalf("%s: %s has %d elements, want %d", what, name, len(g), len(w))
		}
		for i := range w {
			if gs, ws := fmt.Sprintf("%x", g[i]), fmt.Sprintf("%x", w[i]); gs != ws {
				t.Fatalf("%s: %s[%d] = %s, want %s", what, name, i, gs, ws)
			}
		}
	}
}

// TestStepMatchesRecomputingReference: six model steps with moisture, a
// mixed water/land boundary and a baroclinic flow leave every field and
// every step's surface fluxes bit-equal to the recomputing reference, at
// pool widths 1 and 4 — from a one-level column, where no vertical
// interface exists, to 20 levels.
func TestStepMatchesRecomputingReference(t *testing.T) {
	defer sched.SetWorkers(0)
	const dt, steps = 150.0, 6
	for _, nlev := range []int{1, 2, 6, 12, 20} {
		sched.SetWorkers(1)
		ref, bc := oracleModelLevels(nlev)
		var refFluxes []*SurfaceFluxes
		for n := 0; n < steps; n++ {
			refFluxes = append(refFluxes, refStep(ref, dt, bc))
		}
		if err := ref.State.CheckFinite(); err != nil {
			t.Fatalf("nlev=%d: %v", nlev, err)
		}
		var rained, evaporated bool
		for c := range refFluxes[steps-1].Precip {
			rained = rained || refFluxes[steps-1].Precip[c] > 0
			evaporated = evaporated || refFluxes[steps-1].Evaporation[c] > 0
		}
		if nlev == 12 && (!rained || !evaporated) {
			t.Fatalf("fixture does not exercise the water cycle: rained=%v evaporated=%v", rained, evaporated)
		}
		for _, width := range []int{1, 4} {
			sched.SetWorkers(width)
			m, _ := oracleModelLevels(nlev)
			for n := 0; n < steps; n++ {
				fl := m.Step(dt, bc)
				requireSameBits(t, fmt.Sprintf("nlev=%d workers=%d step %d fluxes", nlev, width, n), fluxFields(fl), fluxFields(refFluxes[n]))
			}
			requireSameBits(t, fmt.Sprintf("nlev=%d workers=%d", nlev, width), modelFields(m), modelFields(ref))
		}
	}
}

// TestUpwindTiesMatchReference: a zero mass flux carries nothing whichever
// side donates, so on finite fields the two arms of an upwind select agree
// and the step comparison above cannot tell `>=` from `>`. An infinite
// donor makes the choice visible — 0·Inf is NaN, 0·finite is 0 — so this
// plants zero fluxes of both signs next to infinite θ and tracer values
// and compares the flux and transport sweeps with their references.
func TestUpwindTiesMatchReference(t *testing.T) {
	upwindTies(t, liveThermo, requireSameBits)
}

// TestUpwindTiesNearPowReference: the same with the two lead-in steps of
// the reference on the retired math.Pow thermodynamics. The planted zeros
// and infinities are the same on both sides, so every NaN and infinity
// must fall where the reference has one, and the finite values agree to
// the tolerance of TestStepNearPowReference.
func TestUpwindTiesNearPowReference(t *testing.T) {
	upwindTies(t, powThermo, func(t *testing.T, what string, got, want map[string][]float64) {
		t.Helper()
		requireNearFields(t, what, got, want, 1e-9)
	})
}

func upwindTies(t *testing.T, th refThermo, require func(t *testing.T, what string, got, want map[string][]float64)) {
	const dt = 150.0
	m, bc := oracleModel()
	ref, _ := oracleModel()
	for n := 0; n < 2; n++ {
		m.Step(dt, bc)
		refStepOn(ref, dt, bc, th)
	}
	m.State.UpdateDiagnostics() // the flux sweep reads a current Theta
	refDiag(ref.State)
	for _, x := range []*Model{m, ref} {
		s, d := x.State, x.Dyn
		zero := math.Copysign(0, -1)
		for i := 0; i < len(s.Vn); i += 3 {
			zero = -zero
			s.Vn[i], d.vnPred[i] = zero, zero
		}
		for i := 0; i < len(d.MassFluxVert); i += 5 {
			zero = -zero
			d.MassFluxVert[i] = zero
		}
		for i := 0; i < len(s.Rho); i += 7 {
			s.RhoTheta[i], s.Theta[i] = math.Inf(1), math.Inf(1)
			for _, q := range s.Tracers {
				q[i] = math.Inf(1)
			}
		}
	}
	fields := func(x *Model) map[string][]float64 {
		f := modelFields(x)
		f["thflux"] = x.Dyn.thFluxEdge
		return f
	}
	sched.Run(m.State.G.NEdges, m.Dyn.parFluxE)
	refFluxE(ref.Dyn)
	require(t, "flux sweep", fields(m), fields(ref))
	m.Dyn.Transport(dt, m.rhoOld)
	refTransport(ref.Dyn, dt, ref.rhoOld)
	require(t, "transport", fields(m), fields(ref))
	var nans int
	for _, v := range m.State.Tracers[TracerCO2] {
		if math.IsNaN(v) {
			nans++
		}
	}
	if nans == 0 {
		t.Fatal("no zero flux met an infinite donor: the ties are not exercised")
	}
}

// requireNearFields fails on the first element of any field further from
// want than rel times the field's largest finite magnitude; a NaN or an
// infinity must sit where want has the same.
func requireNearFields(t *testing.T, what string, got, want map[string][]float64, rel float64) {
	t.Helper()
	var worst float64
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Fatalf("%s: %s has %d elements, want %d", what, name, len(g), len(w))
		}
		var scale float64
		for _, v := range w {
			if !math.IsInf(v, 0) && !math.IsNaN(v) {
				scale = math.Max(scale, math.Abs(v))
			}
		}
		for i := range w {
			switch {
			case math.IsNaN(w[i]) || math.IsInf(w[i], 0):
				if fmt.Sprint(g[i]) != fmt.Sprint(w[i]) {
					t.Fatalf("%s: %s[%d] = %v, want %v", what, name, i, g[i], w[i])
				}
			case !(math.Abs(g[i]-w[i]) <= rel*scale):
				t.Fatalf("%s: %s[%d] = %v, want %v within %v of %v", what, name, i, g[i], w[i], rel, scale)
			case g[i] != w[i]:
				worst = math.Max(worst, math.Abs(g[i]-w[i])/scale)
			}
		}
	}
	if worst == 0 {
		t.Errorf("%s: equal to the math.Pow reference to the last bit, so it is not the retired arithmetic", what)
	}
	t.Logf("%s: up to %.2g of a field's magnitude from the math.Pow reference", what, worst)
}

// TestStepNearPowReference: the six steps of the fixture above stay within
// 1e-9 of every field's magnitude of the recomputing reference on the
// retired math.Pow thermodynamics. The two differ by a few ulp per
// pressure and Held–Suarez evaluation, which six steps of the baroclinic
// fixture carry to 1e-11 of the vertical velocity's magnitude and less
// elsewhere; a change of formula would show at 1e-6 or more.
func TestStepNearPowReference(t *testing.T) {
	const dt, steps = 150.0, 6
	for _, nlev := range []int{1, 12, 20} {
		ref, bc := oracleModelLevels(nlev)
		m, _ := oracleModelLevels(nlev)
		for n := 0; n < steps; n++ {
			fl, refFl := m.Step(dt, bc), refStepOn(ref, dt, bc, powThermo)
			requireNearFields(t, fmt.Sprintf("nlev=%d step %d fluxes", nlev, n), fluxFields(fl), fluxFields(refFl), 1e-9)
		}
		requireNearFields(t, fmt.Sprintf("nlev=%d", nlev), modelFields(m), modelFields(ref), 1e-9)
	}
}

// TestTeqMatchesTEq: the tabulated-latitude form the column sweep calls
// returns the bits of the exported TEq at every cell and level.
func TestTeqMatchesTEq(t *testing.T) {
	m, bc := oracleModel()
	m.Step(150, bc) // binds the tables
	p, s := m.Phys, m.State
	for c := 0; c < s.G.NCells; c++ {
		lat, _ := s.G.CellCenter[c].LatLon()
		for k := 0; k < s.NLev; k++ {
			exn := s.Exner[c*s.NLev+k]
			got, want := p.HS.teq(p.cos2[c], 1-p.cos2[c], exn), p.HS.TEq(lat, exn)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cell %d level %d: teq %x, TEq %x", c, k, got, want)
			}
		}
	}
}

// TestNoStaleScratch: nothing the step keeps between its stages (pressure
// scratch, the in-place Exner refresh, the stored advective tendency) is
// read before it is rewritten. A model that has stepped, then had ρθ
// perturbed and its diagnostics rebuilt the way the benchmark's seeding
// does, continues exactly like a freshly built model given the same state.
func TestNoStaleScratch(t *testing.T) {
	const dt = 150.0
	used, bc := oracleModel()
	for n := 0; n < 3; n++ {
		used.Step(dt, bc)
	}
	for i := range used.State.RhoTheta {
		used.State.RhoTheta[i] *= 1 + 1e-6*math.Sin(float64(i))
	}
	used.State.UpdateDiagnostics()

	fresh, _ := oracleModel()
	for name, f := range modelFields(used) {
		copy(modelFields(fresh)[name], f)
	}
	for n := 0; n < 2; n++ {
		flUsed, flFresh := used.Step(dt, bc), fresh.Step(dt, bc)
		requireSameBits(t, fmt.Sprintf("step %d fluxes", n), fluxFields(flUsed), fluxFields(flFresh))
	}
	requireSameBits(t, "used vs fresh model", modelFields(used), modelFields(fresh))
}
