package bgc

import (
	"math"

	"icoearth/internal/ocean"
	"icoearth/internal/pow"
	"icoearth/internal/sched"
	"icoearth/internal/vertical"
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

// levelTables holds what the column kernels need of the vertical grid and
// of the parameters alone. The kernel entry points bring it up to date
// before they dispatch — never inside a parallel body — keyed on the grid
// and on the bits of the parameters each table is made from, so a Params
// edited between two calls or a State built by struct literal is served.
// The zero value is valid: no grid, and the pow.Fixed of base 0.
type levelTables struct {
	vert *vertical.Ocean // the grid dz, atten and sinkFrac are built on
	dz   []float64       // layer thickness

	atten  []float64 // Exp(−LightK·½(z0+z1)): mean light in the layer over surface light
	lightK uint64    // bits of the LightK in atten
	q10    pow.Fixed

	sinkFrac          []float64 // min(1, SinkSpeed·dt/dz[k−1]): share of layer k−1 that sinks into k
	sinkSpeed, sinkDt uint64    // bits of the SinkSpeed and dt in sinkFrac
}

// onGrid drops every table built on another vertical grid than oc's.
func (t *levelTables) onGrid(oc *ocean.State) {
	if t.vert == oc.Vert && len(t.dz) == oc.NLev {
		return
	}
	*t = levelTables{vert: oc.Vert, dz: make([]float64, oc.NLev)}
	for k := range t.dz {
		t.dz[k] = oc.Vert.Thickness(k)
	}
}

func (t *levelTables) forEcosystem(oc *ocean.State, p *Params) {
	t.onGrid(oc)
	if b := math.Float64bits(p.LightK); t.atten == nil || b != t.lightK {
		t.lightK, t.atten = b, make([]float64, len(t.dz))
		for k := range t.atten {
			z0, z1 := oc.Vert.ZIface[k], oc.Vert.ZIface[k+1]
			t.atten[k] = math.Exp(-p.LightK * 0.5 * (z0 + z1))
		}
	}
	if math.Float64bits(p.Q10) != math.Float64bits(t.q10.Base()) {
		t.q10 = pow.NewFixed(p.Q10)
	}
}

func (t *levelTables) forSinking(oc *ocean.State, p *Params, dt float64) {
	t.onGrid(oc)
	bs, bd := math.Float64bits(p.SinkSpeed), math.Float64bits(dt)
	if t.sinkFrac == nil || bs != t.sinkSpeed || bd != t.sinkDt {
		t.sinkSpeed, t.sinkDt, t.sinkFrac = bs, bd, make([]float64, len(t.dz))
		for k := 1; k < len(t.dz); k++ {
			t.sinkFrac[k] = math.Min(1, p.SinkSpeed*dt/t.dz[k-1])
		}
	}
}

// kernelArgs carries one call's arguments to the pre-bound bodies (of the
// State's kernels, and of the Model's launches).
type kernelArgs struct {
	dt                         float64
	p                          *Params
	sw, pco2Atm, wind, iceFrac []float64
}

// bind builds the worker-pool bodies once per State (lazily, so a State
// built by struct literal gets them too); with the arguments passed
// through s.args the steady-state dispatch allocates nothing.
func (s *State) bind() {
	s.parEco = s.ecosystemColumns
	s.parSink = s.sinkColumns
	s.parAirSea = s.airSeaCells
}

// EcosystemKernel advances the NPZD dynamics of all columns by dt, with
// surface shortwave swDown (W/m², per compact ocean cell). All
// carbon-pool transfers are internal and conserve total carbon exactly;
// nutrient/oxygen updates follow Redfield stoichiometry.
// Columns are independent and run cell-parallel on the worker pool.
func (s *State) EcosystemKernel(dt float64, p *Params, swDown []float64) {
	if s.parEco == nil {
		s.bind()
	}
	s.tab.forEcosystem(s.Oc, p)
	s.args = kernelArgs{dt: dt, p: p, sw: swDown}
	sched.Run(len(s.Oc.Cells), s.parEco)
	s.args = kernelArgs{}
}

// ecosystemColumns advances the NPZD dynamics of columns [lo,hi). Each
// tracer is read once and written once per level through column slices;
// the light attenuation comes from the level table and the Q10 factor
// from the fixed-base power, and every other operation is written as the
// NPZD equations have it, in their association.
func (s *State) ecosystemColumns(lo, hi int) {
	oc := s.Oc
	nlev := oc.NLev
	dt, p, swDown := s.args.dt, *s.args.p, s.args.sw
	zIface, atten, q10Pow := oc.Vert.ZIface, s.tab.atten, &s.tab.q10
	dmsKeep := 1 - dt/(5*86400) // photolysis sink
	tr := &s.Tracers
	for i := lo; i < hi; i++ {
		sw, depth := swDown[i], oc.Depth[i]
		col := func(f []float64) []float64 { return f[i*nlev:][:nlev] }
		temp := col(oc.Temp)
		cPO4, cNO3, cSiO4, cFe, cO2 := col(tr[TrPO4]), col(tr[TrNO3]), col(tr[TrSiO4]), col(tr[TrFe]), col(tr[TrO2])
		cDIC, cAlk, cPhy, cZoo, cDOC := col(tr[TrDIC]), col(tr[TrAlk]), col(tr[TrPhy]), col(tr[TrZoo]), col(tr[TrDOC])
		cDet, cCaCO3, cOpal := col(tr[TrDet]), col(tr[TrCaCO3]), col(tr[TrOpal])
		cN2O, cDMS, cH2S := col(tr[TrN2O]), col(tr[TrDMS]), col(tr[TrH2S])
		for k := 0; k < nlev && !(zIface[k] >= depth); k++ {
			// Mean light in the layer (Beer's law, self-shading ignored).
			light := sw * atten[k]
			q10 := q10Pow.Pow((temp[k] - 20) / 10)

			phy, zoo, po4, fe, dic := cPhy[k], cZoo[k], cPO4[k], cFe[k], cDIC[k]

			// Growth (carbon units), limited by light, P, Fe.
			fL := light / (light + p.LightHalf)
			fP := po4 / (po4 + p.KPO4)
			fFe := fe / (fe + p.KFe)
			lim := fmin(fP, fFe)
			growth := p.MuMax * q10 * fL * lim * phy * dt // mol C/m³
			// Cannot take more P than present.
			growth = fmin(growth, po4*RedfieldCP*0.9)
			// Cannot take more DIC than present.
			growth = fmin(growth, dic*0.5)

			// Grazing (Holling II).
			graze := p.GrazeMax * q10 * phy / (phy + p.KGraze) * zoo * dt
			graze = fmin(graze, phy*0.9)
			assim := p.AssimEff * graze
			egest := graze - assim

			// Mortality.
			phyMort := p.PhyMort * q10 * phy * dt
			zooMort := p.ZooMort * q10 * zoo * zoo / (zoo + 1e-4) * dt

			// Remineralisation (oxygen-limited).
			o2, doc, det := cO2[k], cDOC[k], cDet[k]
			fO2 := o2 / (o2 + 0.03)
			docRem := p.DOCRemin * q10 * fO2 * doc * dt
			detRem := p.DetRemin * q10 * fO2 * det * dt

			// Particle production: CaCO3 and opal as fractions of growth.
			sio4, caco3, opal := cSiO4[k], cCaCO3[k], cOpal[k]
			caco3Prod := p.CaCO3Frac * growth
			opalProd := p.OpalFrac * growth * (sio4 / (sio4 + 1e-3))
			caco3Diss := p.CaCO3Diss * caco3 * dt
			opalDiss := p.OpalDiss * opal * dt

			// --- Apply (carbon-conserving bookkeeping) ---
			cPhy[k] = phy + (growth - graze - phyMort)
			cZoo[k] = zoo + (assim - zooMort)
			cDOC[k] = doc + (0.3*phyMort + 0.3*zooMort - docRem)
			cDet[k] = det + (0.7*phyMort + 0.7*zooMort + egest - detRem)
			// DIC: consumed by growth and CaCO3 formation, returned by
			// remineralisation and dissolution.
			cDIC[k] = dic + (docRem + detRem + caco3Diss - growth - caco3Prod)
			cCaCO3[k] = caco3 + (caco3Prod - caco3Diss)
			// Alkalinity: −2 per CaCO3 formed, +2 per dissolved.
			cAlk[k] += 2 * (caco3Diss - caco3Prod)
			// Nutrients (Redfield on the organic fluxes); round-off
			// negatives on the non-carbon tracers are clipped on the way out.
			orgNet := growth - docRem - detRem // net organic C formation
			cPO4[k] = clip(po4 - orgNet/RedfieldCP)
			cNO3[k] = clip(cNO3[k] - orgNet/RedfieldCP*RedfieldNP)
			cFe[k] = clip(fe - orgNet/RedfieldCP*1e-3)
			cSiO4[k] = clip(sio4 + (opalDiss - opalProd))
			cOpal[k] = opal + (opalProd - opalDiss)
			// Oxygen: produced by photosynthesis, consumed by respiration.
			cO2[k] = clip(o2 + orgNet/RedfieldCP*RedfieldOP)
			// Trace gases.
			cDMS[k] = clip((cDMS[k] + p.DMSYield*(phyMort+graze)) * dmsKeep)
			cN2O[k] = clip(cN2O[k] + 1e-6*detRem)
			// H2S forms only in anoxia.
			if o2 < 0.005 {
				cH2S[k] += 1e-3 * detRem
			}
		}
	}
}

// fmin is math.Min: where one argument is less than the other Min returns
// that argument, whatever it is, and the ties, zeros of either sign and
// NaNs that are left go to Min itself.
func fmin(x, y float64) float64 {
	if x < y {
		return x
	}
	if y < x {
		return y
	}
	return math.Min(x, y)
}

// clip zeroes a round-off negative.
func clip(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// SinkingKernel moves detritus, CaCO3 and opal downward at the sinking
// speed with upwind fluxes; material reaching the bottom stays in the
// deepest wet layer until the ecosystem kernel remineralises it (no
// sediment module), so no carbon leaves the system here. Columns are
// independent; one cell-parallel sweep moves all three tracers.
func (s *State) SinkingKernel(dt float64, p *Params) {
	if s.parSink == nil {
		s.bind()
	}
	s.tab.forSinking(s.Oc, p, dt)
	sched.Run(len(s.Oc.Cells), s.parSink)
}

func (s *State) sinkColumns(lo, hi int) {
	oc := s.Oc
	nlev := oc.NLev
	dz, frac := s.tab.dz, s.tab.sinkFrac
	for i := lo; i < hi; i++ {
		wet := oc.WetLevels(i)
		sinkColumn(s.Tracers[TrDet][i*nlev:][:wet], dz, frac)
		sinkColumn(s.Tracers[TrCaCO3][i*nlev:][:wet], dz, frac)
		sinkColumn(s.Tracers[TrOpal][i*nlev:][:wet], dz, frac)
	}
}

// sinkColumn is the downward upwind transfer through the wet levels q of
// one column, bottom-up to avoid double moves.
func sinkColumn(q, dz, frac []float64) {
	for k := len(q) - 1; k >= 1; k-- {
		move := q[k-1] * frac[k]
		q[k-1] -= move
		q[k] += move * dz[k-1] / dz[k]
	}
}
