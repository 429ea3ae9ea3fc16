package bgc

import (
	"math"

	"icoearth/internal/sched"
)

// clipTracers / sinkTracers are hoisted index lists so the kernels do not
// build a composite literal per column.
var (
	clipTracers = [...]int{TrPO4, TrNO3, TrSiO4, TrFe, TrO2, TrDMS, TrN2O}
	sinkTracers = [...]int{TrDet, TrCaCO3, TrOpal}
)

// Ecosystem parameters (NPZD with HAMOCC-like extensions).
type Params struct {
	MuMax     float64 // maximum phytoplankton growth rate, 1/s
	KPO4      float64 // half-saturation for phosphate, mol P/m³
	KFe       float64
	LightK    float64 // light attenuation, 1/m
	LightHalf float64 // half-saturation irradiance, W/m²
	GrazeMax  float64 // maximum grazing rate, 1/s
	KGraze    float64 // grazing half-saturation, mol C/m³
	AssimEff  float64 // zooplankton assimilation efficiency
	PhyMort   float64 // 1/s
	ZooMort   float64
	DOCRemin  float64 // 1/s at 20 °C
	DetRemin  float64
	SinkSpeed float64 // detritus sinking, m/s
	CaCO3Frac float64 // rain ratio: CaCO3 production / organic production
	OpalFrac  float64
	CaCO3Diss float64 // 1/s
	OpalDiss  float64
	DMSYield  float64 // DMS per phytoplankton loss
	Q10       float64
}

// DefaultParams returns the standard parameter set.
func DefaultParams() Params {
	day := 86400.0
	return Params{
		MuMax:     1.2 / day,
		KPO4:      0.1e-3,
		KFe:       0.05e-6,
		LightK:    0.08,
		LightHalf: 25,
		GrazeMax:  0.8 / day,
		KGraze:    1.0e-3,
		AssimEff:  0.6,
		PhyMort:   0.05 / day,
		ZooMort:   0.1 / day,
		DOCRemin:  0.01 / day,
		DetRemin:  0.05 / day,
		SinkSpeed: 5.0 / day * 10, // ≈50 m/day
		CaCO3Frac: 0.08,
		OpalFrac:  0.25,
		CaCO3Diss: 0.005 / day,
		OpalDiss:  0.002 / day,
		DMSYield:  1e-4,
		Q10:       1.9,
	}
}

// EcosystemKernel advances the NPZD dynamics of all columns by dt, with
// surface shortwave swDown (W/m², per compact ocean cell). All
// carbon-pool transfers are internal and conserve total carbon exactly;
// nutrient/oxygen updates follow Redfield stoichiometry.
// Columns are independent and run cell-parallel on the worker pool.
func (s *State) EcosystemKernel(dt float64, p *Params, swDown []float64) {
	if s.parEco == nil {
		s.parEco = func(lo, hi int) {
			s.ecosystemColumns(lo, hi, s.ecoDt, s.ecoP, s.ecoSw)
		}
	}
	s.ecoDt, s.ecoP, s.ecoSw = dt, p, swDown
	sched.Run(len(s.Oc.Cells), s.parEco)
	s.ecoP, s.ecoSw = nil, nil
}

// ecosystemColumns advances the NPZD dynamics of columns [lo,hi).
func (s *State) ecosystemColumns(lo, hi int, dt float64, p *Params, swDown []float64) {
	oc := s.Oc
	nlev := oc.NLev
	for i := lo; i < hi; i++ {
		sw := swDown[i]
		light := sw
		for k := 0; k < nlev; k++ {
			idx := i*nlev + k
			z0 := oc.Vert.ZIface[k]
			z1 := oc.Vert.ZIface[k+1]
			if z0 >= oc.Depth[i] {
				break
			}
			// Mean light in the layer (Beer's law, self-shading ignored).
			light = sw * math.Exp(-p.LightK*0.5*(z0+z1))
			tC := oc.Temp[idx]
			q10 := math.Pow(p.Q10, (tC-20)/10)

			phy := s.Tracers[TrPhy][idx]
			zoo := s.Tracers[TrZoo][idx]
			po4 := s.Tracers[TrPO4][idx]
			fe := s.Tracers[TrFe][idx]

			// Growth (carbon units), limited by light, P, Fe.
			fL := light / (light + p.LightHalf)
			fP := po4 / (po4 + p.KPO4)
			fFe := fe / (fe + p.KFe)
			lim := math.Min(fP, fFe)
			growth := p.MuMax * q10 * fL * lim * phy * dt // mol C/m³
			// Cannot take more P than present.
			growth = math.Min(growth, po4*RedfieldCP*0.9)
			// Cannot take more DIC than present.
			growth = math.Min(growth, s.Tracers[TrDIC][idx]*0.5)

			// Grazing (Holling II).
			graze := p.GrazeMax * q10 * phy / (phy + p.KGraze) * zoo * dt
			graze = math.Min(graze, phy*0.9)
			assim := p.AssimEff * graze
			egest := graze - assim

			// Mortality.
			phyMort := p.PhyMort * q10 * phy * dt
			zooMort := p.ZooMort * q10 * zoo * zoo / (zoo + 1e-4) * dt

			// Remineralisation (oxygen-limited).
			o2 := s.Tracers[TrO2][idx]
			fO2 := o2 / (o2 + 0.03)
			docRem := p.DOCRemin * q10 * fO2 * s.Tracers[TrDOC][idx] * dt
			detRem := p.DetRemin * q10 * fO2 * s.Tracers[TrDet][idx] * dt

			// Particle production: CaCO3 and opal as fractions of growth.
			caco3Prod := p.CaCO3Frac * growth
			opalProd := p.OpalFrac * growth * (s.Tracers[TrSiO4][idx] / (s.Tracers[TrSiO4][idx] + 1e-3))
			caco3Diss := p.CaCO3Diss * s.Tracers[TrCaCO3][idx] * dt
			opalDiss := p.OpalDiss * s.Tracers[TrOpal][idx] * dt

			// --- Apply (carbon-conserving bookkeeping) ---
			s.Tracers[TrPhy][idx] += growth - graze - phyMort
			s.Tracers[TrZoo][idx] += assim - zooMort
			s.Tracers[TrDOC][idx] += 0.3*phyMort + 0.3*zooMort - docRem
			s.Tracers[TrDet][idx] += 0.7*phyMort + 0.7*zooMort + egest - detRem
			// DIC: consumed by growth and CaCO3 formation, returned by
			// remineralisation and dissolution.
			s.Tracers[TrDIC][idx] += docRem + detRem + caco3Diss - growth - caco3Prod
			s.Tracers[TrCaCO3][idx] += caco3Prod - caco3Diss
			// Alkalinity: −2 per CaCO3 formed, +2 per dissolved.
			s.Tracers[TrAlk][idx] += 2 * (caco3Diss - caco3Prod)
			// Nutrients (Redfield on the organic fluxes).
			orgNet := growth - docRem - detRem // net organic C formation
			s.Tracers[TrPO4][idx] -= orgNet / RedfieldCP
			s.Tracers[TrNO3][idx] -= orgNet / RedfieldCP * RedfieldNP
			s.Tracers[TrFe][idx] -= orgNet / RedfieldCP * 1e-3
			s.Tracers[TrSiO4][idx] += opalDiss - opalProd
			s.Tracers[TrOpal][idx] += opalProd - opalDiss
			// Oxygen: produced by photosynthesis, consumed by respiration.
			s.Tracers[TrO2][idx] += orgNet / RedfieldCP * RedfieldOP
			// Trace gases.
			s.Tracers[TrDMS][idx] += p.DMSYield * (phyMort + graze)
			s.Tracers[TrDMS][idx] *= 1 - dt/(5*86400) // photolysis sink
			s.Tracers[TrN2O][idx] += 1e-6 * detRem
			// H2S forms only in anoxia.
			if o2 < 0.005 {
				s.Tracers[TrH2S][idx] += 1e-3 * detRem
			}
			// Clip round-off negatives on non-carbon tracers.
			for _, t := range clipTracers {
				if s.Tracers[t][idx] < 0 {
					s.Tracers[t][idx] = 0
				}
			}
		}
	}
}

// SinkingKernel moves detritus, CaCO3 and opal downward at the sinking
// speed with upwind fluxes; material reaching the bottom remineralises
// into the deepest wet layer (no sediment module), conserving carbon.
// Columns are independent; each tracer runs one cell-parallel sweep.
func (s *State) SinkingKernel(dt float64, p *Params) {
	if s.parSink == nil {
		s.parSink = func(lo, hi int) {
			oc := s.Oc
			nlev := oc.NLev
			q, dt, p := s.sinkQ, s.sinkDt, s.sinkP
			for i := lo; i < hi; i++ {
				wet := oc.WetLevels(i)
				// Downward upwind transfer, bottom-up to avoid double moves.
				for k := wet - 1; k >= 1; k-- {
					dzAbove := oc.Vert.Thickness(k - 1)
					dz := oc.Vert.Thickness(k)
					move := q[i*nlev+k-1] * math.Min(1, p.SinkSpeed*dt/dzAbove)
					q[i*nlev+k-1] -= move
					q[i*nlev+k] += move * dzAbove / dz
				}
			}
		}
	}
	s.sinkDt, s.sinkP = dt, p
	for _, tr := range sinkTracers {
		s.sinkQ = s.Tracers[tr]
		sched.Run(len(s.Oc.Cells), s.parSink)
		// Bottom flux: remineralise in place (handled implicitly — material
		// stays in the deepest layer until remineralised by the ecosystem
		// kernel), so no carbon leaves the system here.
	}
	s.sinkQ, s.sinkP = nil, nil
}
