package atmos

import "math"

// Gray two-stream radiation: the step up from Held–Suarez relaxation
// toward the full model's radiative transfer. Shortwave heats the surface
// (handled by the surface components through SurfaceBC/diag fluxes);
// longwave is integrated through the column with a gray absorber whose
// optical depth follows water vapour and CO₂, so the scheme responds to
// the model's own composition — the coupling between radiation and the
// carbon/water cycles that motivates the full Earth system.
//
// The fluxes are computed per column on the model's own levels:
//
//	upward:   U(k) = U(k+1)·T(k) + σT⁴(k)·(1−T(k))
//	downward: D(k) = D(k−1)·T(k) + σT⁴(k)·(1−T(k))
//
// with layer transmissivity T(k) = exp(−Δτ(k)). Heating follows the flux
// divergence. Energy is exactly conserved between the column and its
// boundary fluxes (OLR at the top, net LW at the surface), which the
// tests assert.

// Radiation holds the gray-gas parameters.
type Radiation struct {
	// KappaVapor is the mass absorption coefficient of water vapour
	// (m²/kg); KappaCO2 of CO₂; KappaDry a pressure-broadening background.
	KappaVapor float64
	KappaCO2   float64
	KappaDry   float64
	// SolarConstant and PlanetAlbedo define the shortwave input proxy.
	SolarConstant float64
	PlanetAlbedo  float64

	// Step's column scratch and its result, sized on first use and reused.
	trans, up, dn []float64
	out           []ColumnFluxes
}

// NewRadiation returns gray-gas parameters tuned so a moist tropical
// column has LW optical depth ≈4 and OLR ≈ 240 W/m² near the observed
// global mean.
func NewRadiation() *Radiation {
	return &Radiation{
		KappaVapor:    0.09,
		KappaCO2:      25.0,
		KappaDry:      1.2e-5,
		SolarConstant: 1361,
		PlanetAlbedo:  0.3,
	}
}

const sigmaSB = 5.670374e-8

// ColumnFluxes is the radiative result for one column.
type ColumnFluxes struct {
	OLR        float64 // outgoing longwave at the model top, W/m²
	SfcLWDown  float64 // downward longwave reaching the surface
	SfcLWUp    float64 // upward longwave emitted by the surface
	SfcSWDown  float64 // absorbed shortwave at the surface
	NetHeating float64 // column-integrated LW heating (W/m²; −OLR−net sfc, ≤0 normally)
}

// Step applies longwave heating to every column over dt given the surface
// temperature (bc), and returns the per-cell boundary fluxes, valid until
// the next Step. The shortwave proxy is diagnostic (zenith-angle mean) and
// not applied to the air (it is absorbed by the surface components).
func (r *Radiation) Step(s *State, dt float64, bc SurfaceBC) []ColumnFluxes {
	nlev := s.NLev
	if len(r.trans) != nlev || len(r.out) != s.G.NCells {
		r.trans, r.up, r.dn = make([]float64, nlev), make([]float64, nlev+1), make([]float64, nlev+1)
		r.out = make([]ColumnFluxes, s.G.NCells)
	}
	out, trans, up, dn := r.out, r.trans, r.up, r.dn
	for c := 0; c < s.G.NCells; c++ {
		lat, _ := s.G.CellCenter[c].LatLon()
		// Layer transmissivities from composition.
		for k := 0; k < nlev; k++ {
			i := c*nlev + k
			dzMass := s.Rho[i] * s.Vert.LayerThickness(k) // kg/m²
			q := s.Tracers[TracerQV][i]
			co2 := s.Tracers[TracerCO2][i]
			dtau := dzMass * (r.KappaVapor*q + r.KappaCO2*co2 + r.KappaDry)
			trans[k] = math.Exp(-dtau)
		}
		tsfc := 288.0
		if bc.Tsfc != nil {
			tsfc = bc.Tsfc[c]
		}
		// Downward pass (k=0 top).
		dn[0] = 0
		for k := 0; k < nlev; k++ {
			i := c*nlev + k
			T := s.Theta[i] * s.Exner[i]
			planck := sigmaSB * T * T * T * T
			dn[k+1] = dn[k]*trans[k] + planck*(1-trans[k])
		}
		// Upward pass from the surface.
		sfcUp := sigmaSB * tsfc * tsfc * tsfc * tsfc
		up[nlev] = sfcUp
		for k := nlev - 1; k >= 0; k-- {
			i := c*nlev + k
			T := s.Theta[i] * s.Exner[i]
			planck := sigmaSB * T * T * T * T
			up[k] = up[k+1]*trans[k] + planck*(1-trans[k])
		}
		// Heating from flux divergence: net flux N(k) = U(k) − D(k) at
		// interfaces; layer heating = (N(k+1) − N(k)) (W/m², positive
		// heats the layer).
		var colHeat float64
		for k := 0; k < nlev; k++ {
			i := c*nlev + k
			nTop := up[k] - dn[k]
			nBot := up[k+1] - dn[k+1]
			heatW := nBot - nTop // W/m² absorbed by the layer
			colHeat += heatW
			dT := heatW * dt / (s.Rho[i] * Cpd * s.Vert.LayerThickness(k))
			s.Theta[i] += dT / s.Exner[i]
			s.RhoTheta[i] = s.Rho[i] * s.Theta[i]
		}
		// Shortwave proxy: daily-mean insolation by latitude.
		sw := r.SolarConstant / 4 * (1 - r.PlanetAlbedo) * 1.3 * math.Cos(lat) * math.Cos(lat)
		out[c] = ColumnFluxes{
			OLR:        up[0],
			SfcLWDown:  dn[nlev],
			SfcLWUp:    sfcUp,
			SfcSWDown:  sw,
			NetHeating: colHeat,
		}
	}
	return out
}

// EnergyClosure verifies the gray-gas budget for a column result: the
// column heating must equal what enters minus what leaves:
// colHeat = (SfcLWUp − SfcLWDown) − OLR.
func (f ColumnFluxes) EnergyClosure() float64 {
	return f.NetHeating - ((f.SfcLWUp - f.SfcLWDown) - f.OLR)
}
