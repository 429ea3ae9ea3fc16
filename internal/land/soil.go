package land

import (
	"math"

	"icoearth/internal/vertical"
)

// Physical constants of the land surface scheme.
const (
	SoilHeatCap  = 2.4e6 // volumetric heat capacity, J/(m³ K)
	SoilConduct  = 1.0   // thermal conductivity, W/(m K)
	SatCapacity  = 300.0 // column water capacity at saturation, kg/m²
	LvLand       = 2.5008e6
	LfSnow       = 3.34e5
	StefanBoltz  = 5.670374e-8
	Emissivity   = 0.96
	SnowAlbedo   = 0.7
	GroundAlbedo = 0.2
	TMelt        = 273.15
)

// Forcing is the per-land-cell atmospheric boundary condition delivered by
// the coupler each coupling step.
type Forcing struct {
	SWDown       []float64 // absorbed-shortwave proxy before albedo, W/m²
	TAir         []float64 // lowest-level air temperature, K
	Precip       []float64 // total precipitation, kg/m²/s
	SensibleHeat []float64 // W/m², positive = surface gains energy
}

// NewForcing allocates forcing fields for n land cells.
func NewForcing(n int) *Forcing {
	return &Forcing{
		SWDown:       make([]float64, n),
		TAir:         make([]float64, n),
		Precip:       make([]float64, n),
		SensibleHeat: make([]float64, n),
	}
}

// Fluxes is what the land returns to the atmosphere and ocean.
type Fluxes struct {
	Evapotranspiration []float64 // kg/m²/s water to the atmosphere
	CO2Flux            []float64 // kg CO₂/m²/s to the atmosphere (+ = source)
	LatentHeat         []float64 // W/m² consumed from the surface
}

// NewFluxes allocates flux fields for n land cells.
func NewFluxes(n int) *Fluxes {
	return &Fluxes{
		Evapotranspiration: make([]float64, n),
		CO2Flux:            make([]float64, n),
		LatentHeat:         make([]float64, n),
	}
}

// Albedo returns the effective surface albedo of compact cell i (snow
// masking vegetation).
func (s *State) Albedo(i int) float64 {
	snowFrac := math.Min(1, s.Snow[i]/20)
	return GroundAlbedo*(1-snowFrac) + SnowAlbedo*snowFrac
}

// factorSoil eliminates the soil-temperature matrix of dt.
func (t *tables) factorSoil(soil *vertical.Soil, dt float64) {
	for k := 0; k < NSoil; k++ {
		dz := soil.Thickness[k]
		var up, dn float64
		if k > 0 {
			gap := soil.Depth[k] - soil.Depth[k-1]
			up = SoilConduct * dt / (SoilHeatCap * dz * gap)
		}
		if k < NSoil-1 {
			gap := soil.Depth[k+1] - soil.Depth[k]
			dn = SoilConduct * dt / (SoilHeatCap * dz * gap)
		}
		t.mul[k], t.piv[k], t.c[k] = -up, 1+up+dn, -dn
	}
	for k := 1; k < NSoil; k++ {
		t.mul[k] /= t.piv[k-1]
		t.piv[k] -= t.mul[k] * t.c[k-1]
	}
}

// pow4 is math.Pow(x, 4), bit for bit wherever x⁴ is not subnormal
// (|x| ≥ 2^−255.5, any temperature): Pow squares x's mantissa twice,
// rounding each square, and scales by a power of two — the rounding
// x·x and (x·x)·(x·x) perform while the squares stay normal
// (TestPow4BitsEqualMathPow, DESIGN.md §20).
func pow4(x float64) float64 { return (x * x) * (x * x) }

// soil runs the six snow and soil processes — snowrain, snowmelt,
// infiltration, evapotranspiration, soiltemp, soilmoist — on land cell i,
// in that order.
func (m *Model) soil(i int) {
	s, t, dt, f, fl := m.State, &m.tab, m.dt, m.forcing, m.fluxes
	temp := (*[NSoil]float64)(s.SoilTemp[i*NSoil:])
	moist := (*[NSoil]float64)(s.SoilMoist[i*NSoil:])

	// Snow and rain: precipitation on a frozen surface accumulates as
	// snow; rain goes to the skin reservoir.
	if p := f.Precip[i] * dt; temp[0] < TMelt {
		s.Snow[i] += p
	} else {
		s.Skin[i] += p
	}

	// Snowmelt: the energy surplus of a surface above freezing melts
	// snow and cools the surface correspondingly.
	if !(s.Snow[i] <= 0 || temp[0] <= TMelt) {
		excess := (temp[0] - TMelt) * t.heat0 // J/m²
		melt := math.Min(s.Snow[i], excess/LfSnow)
		s.Snow[i] -= melt
		s.Skin[i] += melt
		temp[0] -= melt * LfSnow / t.heat0
	}

	// Infiltration: skin water fills the column from the top; saturated
	// excess becomes runoff.
	if !(s.Skin[i] <= 0) {
		avail := s.Skin[i]
		s.Skin[i] = 0
		for k := 0; k < NSoil && avail > 0; k++ {
			room := (1 - moist[k]) * t.capK[k]
			take := math.Min(avail, room)
			moist[k] += take / t.capK[k]
			avail -= take
		}
		s.Runoff[i] += avail
	}

	// Evapotranspiration: bare-soil evaporation plus transpiration scaled
	// by LAI and moisture stress, limited by the top two levels' water.
	sw := f.SWDown[i] * (1 - s.Albedo(i))
	if temp[0] < TMelt-5 { // frozen: negligible
		fl.Evapotranspiration[i] = 0
		fl.LatentHeat[i] = 0
	} else {
		demand := math.Max(0, 0.8*sw/LvLand) // kg/m²/s, Priestley-Taylor-like
		var lai float64
		for _, l := range s.LAI[i*NumPFT : (i+1)*NumPFT] {
			lai += l
		}
		stress := math.Min(1, moist[0]/0.4)
		et := demand * (0.25 + 0.75*(1-math.Exp(-0.5*lai))) * stress
		var avail float64
		for k := 0; k < 2; k++ {
			avail += moist[k] * t.capK[k]
		}
		et = math.Min(et, 0.5*avail/dt)
		rem := et * dt
		for k := 0; k < 2 && rem > 0; k++ {
			have := moist[k] * t.capK[k]
			take := math.Min(rem, have)
			moist[k] -= take / t.capK[k]
			rem -= take
		}
		et -= rem / dt
		fl.Evapotranspiration[i] = et
		fl.LatentHeat[i] = et * LvLand
	}

	// Soil temperature: implicit 5-level heat diffusion with the surface
	// energy balance (shortwave, longwave, sensible heat, latent cooling)
	// as the top source.
	lw := Emissivity * StefanBoltz * (pow4(f.TAir[i]) - pow4(temp[0]))
	net := sw + lw + f.SensibleHeat[i] - fl.LatentHeat[i]
	d := *temp
	d[0] += net * dt / t.heat0
	for k := 1; k < NSoil; k++ {
		d[k] -= t.mul[k] * d[k-1]
	}
	d[NSoil-1] /= t.piv[NSoil-1]
	for k := NSoil - 2; k >= 0; k-- {
		d[k] = (d[k] - t.c[k]*d[k+1]) / t.piv[k]
	}
	*temp = d

	// Soil moisture: exchange between levels (conserving water through
	// the capacities) and slow gravitational drainage to runoff.
	const diff = 2e-7 // moisture exchange rate between layers, 1/s·(layer pair)
	const drain = 3e-8
	for k := 0; k < NSoil-1; k++ {
		dw := diff * dt * (moist[k] - moist[k+1])
		moist[k] -= dw
		moist[k+1] += dw * t.capK[k] / t.capK[k+1]
	}
	dr := drain * dt * moist[NSoil-1]
	moist[NSoil-1] -= dr
	s.Runoff[i] += dr * t.capK[NSoil-1]
}
