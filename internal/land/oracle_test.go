package land

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"icoearth/internal/grid"
	"icoearth/internal/sched"
)

// The land step as it ran until the fused pass, kept as the byte-equality
// reference: one kernel per process and per (vegetation process, PFT),
// each a loop over every land cell on the calling goroutine, and river
// discharge accumulated into a map keyed by global ocean cell. The
// kernels are the retired ones verbatim, except that photosynthesis no
// longer stores its NPP in a scratch slice nothing read.

// oracleStep runs the retired step's kernel stream in its launch order and
// returns what the retired Model.Step returned: fresh fluxes, and the
// discharge per global ocean cell that received any.
func oracleStep(s *State, r *Rivers, dt float64, f *Forcing) (*Fluxes, map[int]float64) {
	fl := NewFluxes(s.NLand())
	prevNEE := slices.Clone(s.CumNEE)
	discharge := map[int]float64{}
	s.SnowAndRainKernel(dt, f)
	s.SnowMeltKernel(dt)
	s.InfiltrationKernel(dt)
	s.EvapotranspirationKernel(dt, f, fl)
	s.SoilTemperatureKernel(dt, f, fl.LatentHeat)
	s.SoilMoistureKernel(dt)
	for p := 0; p < NumPFT; p++ {
		s.PhenologyKernel(dt, p)
		s.PhotosynthesisKernel(dt, p, f.SWDown)
		s.AllocationKernel(dt, p)
		s.TurnoverKernel(dt, p)
		s.DecayKernel(dt, p)
	}
	s.DynamicVegetationKernel(dt, 0)
	s.NetCO2Flux(prevNEE, dt, fl.CO2Flux)
	r.DischargeKernel(dt, discharge)
	return fl, discharge
}

// SnowAndRainKernel splits precipitation into snowfall (accumulates) and
// rainfall (goes to the skin reservoir for infiltration).
func (s *State) SnowAndRainKernel(dt float64, f *Forcing) {
	for i := range s.Cells {
		p := f.Precip[i] * dt // kg/m² this step
		if s.SurfaceTemp(i) < TMelt {
			s.Snow[i] += p
		} else {
			s.Skin[i] += p
		}
	}
}

// SnowMeltKernel melts snow with the energy surplus of a surface above
// freezing, cooling the surface correspondingly.
func (s *State) SnowMeltKernel(dt float64) {
	dz0 := s.Soil.Thickness[0]
	heatCap := SoilHeatCap * dz0
	for i := range s.Cells {
		if s.Snow[i] <= 0 || s.SoilTemp[i*NSoil] <= TMelt {
			continue
		}
		excess := (s.SoilTemp[i*NSoil] - TMelt) * heatCap // J/m²
		melt := math.Min(s.Snow[i], excess/LfSnow)
		s.Snow[i] -= melt
		s.Skin[i] += melt
		s.SoilTemp[i*NSoil] -= melt * LfSnow / heatCap
	}
}

// InfiltrationKernel moves skin water into the soil column; saturated
// excess becomes runoff.
func (s *State) InfiltrationKernel(dt float64) {
	for i := range s.Cells {
		if s.Skin[i] <= 0 {
			continue
		}
		avail := s.Skin[i]
		s.Skin[i] = 0
		for k := 0; k < NSoil && avail > 0; k++ {
			capK := SatCapacity * s.Soil.Thickness[k] / s.Soil.TotalDepth()
			room := (1 - s.SoilMoist[i*NSoil+k]) * capK
			take := math.Min(avail, room)
			s.SoilMoist[i*NSoil+k] += take / capK
			avail -= take
		}
		s.Runoff[i] += avail
	}
}

// SoilTemperatureKernel integrates the 5-level heat diffusion implicitly,
// with the surface energy balance (shortwave, longwave, sensible heat,
// latent cooling by evapotranspiration) as the top source.
func (s *State) SoilTemperatureKernel(dt float64, f *Forcing, latent []float64) {
	var a, b, c, d [NSoil]float64
	for i := range s.Cells {
		// Surface net energy (W/m²).
		sw := f.SWDown[i] * (1 - s.Albedo(i))
		ts := s.SoilTemp[i*NSoil]
		lw := Emissivity * StefanBoltz * (math.Pow(f.TAir[i], 4) - math.Pow(ts, 4))
		net := sw + lw + f.SensibleHeat[i] - latent[i]
		for k := 0; k < NSoil; k++ {
			dz := s.Soil.Thickness[k]
			var up, dn float64
			if k > 0 {
				gap := s.Soil.Depth[k] - s.Soil.Depth[k-1]
				up = SoilConduct * dt / (SoilHeatCap * dz * gap)
			}
			if k < NSoil-1 {
				gap := s.Soil.Depth[k+1] - s.Soil.Depth[k]
				dn = SoilConduct * dt / (SoilHeatCap * dz * gap)
			}
			a[k] = -up
			b[k] = 1 + up + dn
			c[k] = -dn
			d[k] = s.SoilTemp[i*NSoil+k]
		}
		d[0] += net * dt / (SoilHeatCap * s.Soil.Thickness[0])
		solveTri5(&a, &b, &c, &d)
		for k := 0; k < NSoil; k++ {
			s.SoilTemp[i*NSoil+k] = d[k]
		}
	}
}

// SoilMoistureKernel diffuses moisture between levels and applies a slow
// gravitational drainage from the deepest level to runoff.
func (s *State) SoilMoistureKernel(dt float64) {
	const diff = 2e-7 // moisture exchange rate between layers, 1/s·(layer pair)
	const drain = 3e-8
	for i := range s.Cells {
		base := i * NSoil
		for k := 0; k < NSoil-1; k++ {
			d := diff * dt * (s.SoilMoist[base+k] - s.SoilMoist[base+k+1])
			capK := SatCapacity * s.Soil.Thickness[k] / s.Soil.TotalDepth()
			capK1 := SatCapacity * s.Soil.Thickness[k+1] / s.Soil.TotalDepth()
			// Exchange conserves water mass: convert via capacities.
			s.SoilMoist[base+k] -= d
			s.SoilMoist[base+k+1] += d * capK / capK1
		}
		// Drainage.
		kb := NSoil - 1
		capB := SatCapacity * s.Soil.Thickness[kb] / s.Soil.TotalDepth()
		dr := drain * dt * s.SoilMoist[base+kb]
		s.SoilMoist[base+kb] -= dr
		s.Runoff[i] += dr * capB
	}
}

// EvapotranspirationKernel computes the water flux from soil to atmosphere:
// bare-soil evaporation plus transpiration scaled by LAI and moisture
// stress, limited by available soil water. It fills fluxes.
func (s *State) EvapotranspirationKernel(dt float64, f *Forcing, out *Fluxes) {
	for i := range s.Cells {
		ts := s.SurfaceTemp(i)
		if ts < TMelt-5 { // frozen: negligible
			out.Evapotranspiration[i] = 0
			out.LatentHeat[i] = 0
			continue
		}
		// Demand: radiative proxy (Priestley-Taylor-like).
		sw := f.SWDown[i] * (1 - s.Albedo(i))
		demand := math.Max(0, 0.8*sw/LvLand) // kg/m²/s
		// Vegetation control: more LAI → closer to demand; moisture stress.
		var lai float64
		for p := 0; p < NumPFT; p++ {
			lai += s.LAI[i*NumPFT+p]
		}
		moist := s.SoilMoist[i*NSoil] // top-layer control
		stress := math.Min(1, moist/0.4)
		et := demand * (0.25 + 0.75*(1-math.Exp(-0.5*lai))) * stress
		// Limit by available top-two-layer water.
		var avail float64
		for k := 0; k < 2; k++ {
			capK := SatCapacity * s.Soil.Thickness[k] / s.Soil.TotalDepth()
			avail += s.SoilMoist[i*NSoil+k] * capK
		}
		et = math.Min(et, 0.5*avail/dt)
		// Extract.
		rem := et * dt
		for k := 0; k < 2 && rem > 0; k++ {
			capK := SatCapacity * s.Soil.Thickness[k] / s.Soil.TotalDepth()
			have := s.SoilMoist[i*NSoil+k] * capK
			take := math.Min(rem, have)
			s.SoilMoist[i*NSoil+k] -= take / capK
			rem -= take
		}
		et -= rem / dt
		out.Evapotranspiration[i] = et
		out.LatentHeat[i] = et * LvLand
	}
}

// solveTri5 is the Thomas algorithm on fixed-size 5-level arrays.
func solveTri5(a, b, c, d *[NSoil]float64) {
	for i := 1; i < NSoil; i++ {
		m := a[i] / b[i-1]
		b[i] -= m * c[i-1]
		d[i] -= m * d[i-1]
	}
	d[NSoil-1] /= b[NSoil-1]
	for i := NSoil - 2; i >= 0; i-- {
		d[i] = (d[i] - c[i]*d[i+1]) / b[i]
	}
}

// PhenologyKernel adjusts leaf carbon toward the climate-driven target LAI
// for PFT p: leaf flush draws from the reserve pool, shedding goes to
// above-ground green litter.
func (s *State) PhenologyKernel(dt float64, p int) {
	pft := &s.PFTs[p]
	for i := range s.Cells {
		cov := s.Cover[i*NumPFT+p]
		if cov == 0 {
			continue
		}
		pool := s.poolSlice(i, p)
		tC := s.SurfaceTemp(i) - TMelt
		moist := s.SoilMoist[i*NSoil]
		// Growing-season factor.
		fT := math.Exp(-(tC - pft.TOpt) * (tC - pft.TOpt) / (2 * pft.TRange * pft.TRange))
		fW := math.Min(1, moist/pft.MoistThresh)
		targetLAI := pft.LAIMax * fT * fW * cov
		targetLeaf := targetLAI / pft.SLA
		leaf := pool[PoolLeaf]
		const tau = 10 * 86400.0 // phenological timescale
		adj := (targetLeaf - leaf) * math.Min(1, dt/tau)
		if adj > 0 {
			flush := math.Min(adj, pool[PoolReserve])
			pool[PoolReserve] -= flush
			pool[PoolLeaf] += flush
		} else {
			shed := math.Min(-adj, leaf)
			pool[PoolLeaf] -= shed
			pool[PoolLitAbA] += 0.4 * shed
			pool[PoolLitAbW] += 0.3 * shed
			pool[PoolLitAbE] += 0.2 * shed
			pool[PoolLitAbN] += 0.1 * shed
		}
		s.LAI[i*NumPFT+p] = pool[PoolLeaf] * pft.SLA
	}
}

// PhotosynthesisKernel computes GPP and autotrophic respiration for PFT p,
// updates the reserve pool with the NPP and accumulates the net CO₂ flux.
func (s *State) PhotosynthesisKernel(dt float64, p int, sw []float64) {
	pft := &s.PFTs[p]
	for i := range s.Cells {
		cov := s.Cover[i*NumPFT+p]
		if cov == 0 {
			continue
		}
		pool := s.poolSlice(i, p)
		tC := s.SurfaceTemp(i) - TMelt
		moist := s.SoilMoist[i*NSoil]
		lai := s.LAI[i*NumPFT+p]
		// Absorbed PAR: half of shortwave, Beer's law over the PFT's LAI.
		apar := 0.5 * sw[i] * (1 - math.Exp(-0.5*lai)) * cov * 1e-6 // MJ/m²/s
		fT := math.Exp(-(tC - pft.TOpt) * (tC - pft.TOpt) / (2 * pft.TRange * pft.TRange))
		fW := math.Min(1, moist/pft.MoistThresh)
		gpp := pft.LUE * apar * fT * fW // kg C/m²/s
		// Maintenance respiration: live pools, Q10 temperature response.
		live := pool[PoolLeaf] + pool[PoolRoot] + 0.05*pool[PoolWood]
		q10 := math.Pow(2, (tC-25)/10)
		ra := pft.RespFactor * live * q10
		// Growth respiration: 25% of positive assimilate.
		if gpp > ra {
			ra += 0.25 * (gpp - ra)
		}
		n := gpp - ra
		s.recordNPP(i, p, n, dt)
		// Carbon crosses the boundary here: uptake reduces CumNEE.
		s.CumNEE[i] -= (gpp - ra) * dt
		// NPP lands in the reserve pool (allocation distributes it);
		// negative NPP draws the reserve down (and leaf if exhausted).
		if n >= 0 {
			pool[PoolReserve] += n * dt
		} else {
			need := -n * dt
			take := math.Min(need, pool[PoolReserve])
			pool[PoolReserve] -= take
			need -= take
			take = math.Min(need, pool[PoolLeaf])
			pool[PoolLeaf] -= take
			need -= take
			if need > 0 {
				// The pools could not supply the respiration deficit;
				// correct the boundary accounting so carbon is conserved.
				s.CumNEE[i] -= need
			}
		}
	}
}

// AllocationKernel distributes reserve carbon to the structural pools of
// PFT p with its allocation fractions.
func (s *State) AllocationKernel(dt float64, p int) {
	pft := &s.PFTs[p]
	const tau = 5 * 86400.0
	for i := range s.Cells {
		if s.Cover[i*NumPFT+p] == 0 {
			continue
		}
		pool := s.poolSlice(i, p)
		avail := pool[PoolReserve] * math.Min(1, dt/tau)
		if avail <= 0 {
			continue
		}
		pool[PoolReserve] -= avail * (pft.AllocLeaf + pft.AllocWood + pft.AllocRoot + pft.AllocFruit)
		pool[PoolLeaf] += avail * pft.AllocLeaf
		pool[PoolWood] += avail * pft.AllocWood
		pool[PoolRoot] += avail * pft.AllocRoot
		pool[PoolFruit] += avail * pft.AllocFruit
		s.LAI[i*NumPFT+p] = pool[PoolLeaf] * pft.SLA
	}
}

// TurnoverKernel moves structural carbon of PFT p into the litter cascade
// with the PFT's turnover rates; fruit becomes seed bank and exudates.
func (s *State) TurnoverKernel(dt float64, p int) {
	pft := &s.PFTs[p]
	for i := range s.Cells {
		if s.Cover[i*NumPFT+p] == 0 {
			continue
		}
		pool := s.poolSlice(i, p)
		leafOut := pool[PoolLeaf] * pft.LeafTurn * dt
		woodOut := pool[PoolWood] * pft.WoodTurn * dt
		rootOut := pool[PoolRoot] * pft.RootTurn * dt
		fruitOut := pool[PoolFruit] * (1.0 / (90 * 86400)) * dt
		pool[PoolLeaf] -= leafOut
		pool[PoolWood] -= woodOut
		pool[PoolRoot] -= rootOut
		pool[PoolFruit] -= fruitOut
		pool[PoolLitAbA] += 0.4 * leafOut
		pool[PoolLitAbW] += 0.3 * leafOut
		pool[PoolLitAbE] += 0.2 * leafOut
		pool[PoolLitAbN] += 0.1 * leafOut
		pool[PoolDebris] += woodOut
		pool[PoolLitBeA] += 0.35 * rootOut
		pool[PoolLitBeW] += 0.3 * rootOut
		pool[PoolLitBeE] += 0.2 * rootOut
		pool[PoolLitBeN] += 0.15 * rootOut
		pool[PoolSeedBank] += 0.7 * fruitOut
		pool[PoolExudates] += 0.3 * fruitOut
	}
}

// DecayKernel advances the litter/soil cascade for PFT p; the respired
// fraction of every transfer is heterotrophic respiration, added to CumNEE.
func (s *State) DecayKernel(dt float64, p int) {
	for i := range s.Cells {
		if s.Cover[i*NumPFT+p] == 0 {
			continue
		}
		pool := s.poolSlice(i, p)
		tC := s.SoilTemp[i*NSoil+1] - TMelt // upper-soil temperature drives Rh
		moist := s.SoilMoist[i*NSoil+1]
		q10 := math.Pow(2.2, (tC-25)/10)
		fW := 0.2 + 0.8*math.Min(1, moist/0.5)
		var rh float64
		for _, st := range decayChain {
			out := pool[st.src] * st.k * q10 * fW * dt
			if out > pool[st.src] {
				out = pool[st.src]
			}
			pool[st.src] -= out
			pool[st.dst] += out * st.toNext
			rh += out * (1 - st.toNext)
		}
		s.CumNEE[i] += rh
	}
}

// NetCO2Flux converts the CumNEE increments of the current step into a
// CO₂ mass flux to the atmosphere. The caller passes the CumNEE snapshot
// from before the step; out receives kg CO₂/m²/s.
func (s *State) NetCO2Flux(prevCumNEE []float64, dt float64, out []float64) {
	for i := range s.Cells {
		out[i] = (s.CumNEE[i] - prevCumNEE[i]) / dt * CToCO2
	}
}

// recordNPP updates the smoothed productivity of (cell i, pft p).
func (s *State) recordNPP(i, p int, npp, dt float64) {
	w := math.Min(1, dt/nppSmoothing)
	idx := i*NumPFT + p
	s.NPPAvg[idx] += w * (npp - s.NPPAvg[idx])
}

// DynamicVegetationKernel advances the cover fractions by competition.
// successionTime ≤ 0 uses the default.
func (s *State) DynamicVegetationKernel(dt, successionTime float64) {
	if successionTime <= 0 {
		successionTime = SuccessionTime
	}
	w := math.Min(1, dt/successionTime)
	for i := range s.Cells {
		// Total vegetated fraction stays fixed; fitness shares move within.
		var total, fitSum float64
		for p := 0; p < NumPFT; p++ {
			total += s.Cover[i*NumPFT+p]
			if f := s.NPPAvg[i*NumPFT+p]; f > 0 {
				fitSum += f
			}
		}
		if total <= 0 || fitSum <= 0 {
			continue
		}
		for p := 0; p < NumPFT; p++ {
			idx := i*NumPFT + p
			fit := math.Max(0, s.NPPAvg[idx])
			target := total * fit / fitSum
			s.Cover[idx] += w * (target - s.Cover[idx])
			if s.Cover[idx] < 0 {
				s.Cover[idx] = 0
			}
		}
		// Renormalise round-off so the vegetated fraction is exactly
		// preserved.
		var newTotal float64
		for p := 0; p < NumPFT; p++ {
			newTotal += s.Cover[i*NumPFT+p]
		}
		if newTotal > 0 {
			f := total / newTotal
			for p := 0; p < NumPFT; p++ {
				s.Cover[i*NumPFT+p] *= f
			}
		}
	}
}

// DischargeKernel releases runoff into discharge (kg/s added per global
// ocean cell id; the caller zeroes/aggregates it).
func (r *Rivers) DischargeKernel(dt float64, discharge map[int]float64) {
	s := r.S
	frac := dt / r.ReleaseTime
	if frac > 1 {
		frac = 1
	}
	for i, c := range s.Cells {
		if s.Runoff[i] <= 0 || r.DrainTarget[i] < 0 {
			continue
		}
		out := s.Runoff[i] * frac // kg/m²
		s.Runoff[i] -= out
		discharge[r.DrainTarget[i]] += out * s.G.CellArea[c] / dt // kg/s
	}
}

// stir sets, before step n, forcing and state that drive every branch of
// the land step, on land cells by i mod 10: a frozen surface, down to
// 200 K where the Q10 exponents leave the fixed-base power's unrolled
// range; snow on a thawed surface, both less and more than the surface
// heat can melt; a saturated column under a full skin reservoir; a dry
// top under strong sun, where evapotranspiration is limited by the water
// there is; dark hot cells with empty reserve and almost no leaves, where
// negative NPP exhausts both; upper soil hot enough for the decay clamp;
// bare cells (every PFT without cover); cells without a positive fitness;
// cells without runoff; and cells left to evolve. Stirring both twins
// alike keeps them twins.
func stir(s *State, f *Forcing, n int) {
	for i, c := range s.Cells {
		lat, _ := s.G.CellCenter[c].LatLon()
		f.SWDown[i] = 340 * math.Cos(lat) * math.Cos(lat)
		f.TAir[i] = 288 - 30*math.Sin(lat)*math.Sin(lat)
		f.Precip[i] = 3e-5 * math.Cos(lat)
		f.SensibleHeat[i] = 20 * math.Sin(lat+float64(n))
		temp, moist := s.SoilTemp[i*NSoil:(i+1)*NSoil], s.SoilMoist[i*NSoil:(i+1)*NSoil]
		pfts := func(set func(idx int, pool []float64)) {
			for p := 0; p < NumPFT; p++ {
				set(i*NumPFT+p, s.poolSlice(i, p))
			}
		}
		switch i % 10 {
		case 0:
			fillWith(temp, 250-50*float64(i%20/10))
		case 1:
			temp[0] = 280 + float64(i%7)
			s.Snow[i] = 2 + 30*float64(i%20/10)
		case 2:
			fillWith(moist, 1)
			s.Skin[i] = 40
		case 3:
			fillWith(temp, 300)
			moist[0], moist[1] = 1e-3*float64(1+i%3), 0
			s.Skin[i], f.Precip[i], f.SWDown[i] = 0, 0, 4000
		case 4:
			fillWith(temp, 315)
			f.SWDown[i] = 0
			pfts(func(_ int, pool []float64) { pool[PoolReserve], pool[PoolLeaf] = 0, 1e-9 })
		case 5:
			temp[1], moist[1] = 450, 0.5
		case 6:
			pfts(func(idx int, _ []float64) { s.Cover[idx] = 0 })
		case 7:
			pfts(func(idx int, _ []float64) { s.NPPAvg[idx] = -1e-7 })
		case 8:
			fillWith(moist, 0)
			s.Skin[i], s.Runoff[i], f.Precip[i] = 0, 0, 0
		}
	}
}

func fillWith(x []float64, v float64) {
	for j := range x {
		x[j] = v
	}
}

// stateFields returns every []float64 field of s by name.
func stateFields(s *State) map[string][]float64 {
	out := map[string][]float64{}
	v := reflect.ValueOf(s).Elem()
	for j := 0; j < v.NumField(); j++ {
		if f, ok := v.Field(j).Interface().([]float64); ok {
			out[v.Type().Field(j).Name] = f
		}
	}
	return out
}

func requireSameBits(t *testing.T, at, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %s has %d entries, the kernel sequence %d", at, name, len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: %s[%d] = %v, the kernel sequence gives %v", at, name, j, got[j], want[j])
		}
	}
}

// TestStepMatchesKernelSequence holds Model.Step to the retired kernel
// stream bit for bit — every State field, the fluxes and the discharge of
// every step — over 20 steps on R2B2 and R2B3 at 1, 2 and 4 workers,
// eager and replayed from a graph, with dt changing between steps and
// the stirred forcing of stir. It also checks that the stirring reaches
// the branches it is there for.
func TestStepMatchesKernelSequence(t *testing.T) {
	defer sched.SetWorkers(0)
	for _, level := range []int{2, 3} {
		g := grid.New(grid.R2B(level))
		mask := grid.NewMask(g)
		for _, workers := range []int{1, 2, 4} {
			for _, useGraph := range []bool{false, true} {
				sched.SetWorkers(workers)
				m := NewModel(g, mask, newTestDevice())
				m.UseGraph = useGraph
				ref := NewState(g, mask)
				rivers := NewRivers(ref)
				f, fRef := NewForcing(ref.NLand()), NewForcing(ref.NLand())
				for n := 0; n < 20; n++ {
					at := fmt.Sprintf("R2B%d workers=%d graph=%v step %d", level, workers, useGraph, n)
					dt := []float64{1800, 600, 3600}[n/2%3]
					stir(m.State, f, n)
					stir(ref, fRef, n)
					cover0 := slices.Clone(ref.Cover)
					fl, dis := m.Step(dt, f)
					flRef, disRef := oracleStep(ref, rivers, dt, fRef)
					if n == 0 {
						requireBranches(t, ref, cover0, flRef, rivers, disRef)
					}
					want := stateFields(ref)
					for name, got := range stateFields(m.State) {
						requireSameBits(t, at, name, got, want[name])
					}
					requireSameBits(t, at, "Evapotranspiration", fl.Evapotranspiration, flRef.Evapotranspiration)
					requireSameBits(t, at, "LatentHeat", fl.LatentHeat, flRef.LatentHeat)
					requireSameBits(t, at, "CO2Flux", fl.CO2Flux, flRef.CO2Flux)
					wantDis := make([]float64, len(m.Rivers.Mouths))
					for c, v := range disRef {
						j, found := slices.BinarySearch(m.Rivers.Mouths, c)
						if !found {
							t.Fatalf("%s: cell %d received discharge but is not a mouth", at, c)
						}
						wantDis[j] = v
					}
					requireSameBits(t, at, "discharge", dis, wantDis)
				}
			}
		}
	}
}

// requireBranches checks, on the reference after one stirred 1800 s step
// from cover0, that the stirred cells took the branches stir means them
// to.
func requireBranches(t *testing.T, s *State, cover0 []float64, fl *Fluxes, r *Rivers, discharge map[int]float64) {
	t.Helper()
	hit := map[string]bool{}
	for i := range s.Cells {
		pool := func(p int) []float64 { return s.poolSlice(i, p) }
		switch i % 10 {
		case 0:
			hit["frozen"] = hit["frozen"] || fl.Evapotranspiration[i] == 0 && s.Snow[i] > 0
		case 1:
			hit["snowmelt (all)"] = hit["snowmelt (all)"] || s.Snow[i] == 0
			hit["snowmelt (part)"] = hit["snowmelt (part)"] || s.Snow[i] > 0
		case 2:
			hit["saturated infiltration"] = hit["saturated infiltration"] || s.Runoff[i] > 0 && s.Skin[i] == 0
		case 3:
			// Limited, the step takes half the water of the top two levels.
			half := 0.5 * 1e-3 * float64(1+i%3) * SatCapacity * s.Soil.Thickness[0] / s.Soil.TotalDepth()
			hit["ET water-limited"] = hit["ET water-limited"] || math.Abs(fl.Evapotranspiration[i]*1800-half) < 1e-9*half
		case 4:
			for p := 0; p < NumPFT; p++ {
				hit["reserve and leaf exhausted"] = hit["reserve and leaf exhausted"] ||
					s.Cover[i*NumPFT+p] > 0 && pool(p)[PoolLeaf] == 0 && pool(p)[PoolReserve] == 0
			}
		case 5:
			for p := 0; p < NumPFT; p++ {
				hit["decay clamp"] = hit["decay clamp"] || s.Cover[i*NumPFT+p] > 0 && pool(p)[PoolExudates] == 0
			}
		case 6:
			hit["bare"] = hit["bare"] || s.CoverFraction(i) == 0
		case 7:
			hit["no positive fitness"] = hit["no positive fitness"] || s.CoverFraction(i) > 0 &&
				slices.Equal(s.Cover[i*NumPFT:(i+1)*NumPFT], cover0[i*NumPFT:(i+1)*NumPFT])
		case 8:
			hit["zero runoff"] = hit["zero runoff"] || s.Runoff[i] == 0
		}
	}
	for _, b := range []string{"frozen", "snowmelt (all)", "snowmelt (part)", "saturated infiltration", "ET water-limited",
		"reserve and leaf exhausted", "decay clamp", "bare", "no positive fitness", "zero runoff"} {
		if !hit[b] {
			t.Errorf("the stirred step never took the %s branch", b)
		}
	}
	dry := 0
	for _, c := range r.Mouths {
		if _, ok := discharge[c]; !ok {
			dry++
		}
	}
	if dry == 0 {
		t.Errorf("every one of %d river mouths received discharge: none is left at 0 where the retired map had no key", len(r.Mouths))
	}
}

// TestPow4BitsEqualMathPow holds pow4 to math.Pow(x, 4) bit for bit
// around every power of two whose fourth power is normal or overflows,
// over 10⁶ uniform draws in 100…400 K and 10⁶ log-uniform draws over the
// normal range, and at ±0, ±Inf, NaN and negative inputs; and shows the
// subnormal edge it must exclude, where the two roundings of x·x and
// (x·x)² differ from Pow's one.
func TestPow4BitsEqualMathPow(t *testing.T) {
	same := func(x float64) bool {
		a, b := pow4(x), math.Pow(x, 4)
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	check := func(x float64) {
		t.Helper()
		if !same(x) {
			t.Fatalf("pow4(%v) = %v, math.Pow gives %v", x, pow4(x), math.Pow(x, 4))
		}
	}
	edge := math.Ldexp(1, -255) // below it x⁴ < 2^-1020 may be subnormal
	for e := -255; e <= 1023; e++ {
		up, dn := math.Ldexp(1, e), math.Ldexp(1, e)
		for j := 0; j < 4000; j++ {
			check(up)
			check(-up)
			if dn >= edge {
				check(dn)
			}
			up, dn = math.Nextafter(up, math.Inf(1)), math.Nextafter(dn, 0)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for j := 0; j < 1_000_000; j++ {
		check(100 + 300*rng.Float64())
		check(math.Ldexp(1, -255+rng.Intn(1279)) * (1 + rng.Float64()))
	}
	for _, x := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -1, -273.15, -1e300, math.MaxFloat64} {
		check(x)
	}
	differs := 0
	for e := -258; e < -255; e++ {
		x := math.Ldexp(1, e)
		for j := 0; j < 4000; j++ {
			if !same(x) {
				differs++
			}
			x = math.Nextafter(x, 1)
		}
	}
	if differs == 0 {
		t.Error("no subnormal x⁴ differs from math.Pow: the excluded edge is not where pow4 and Pow part")
	}
}

// TestModelStepSteadyStateAllocs: a warmed-up Model.Step allocates
// nothing, eager or replayed, on one worker or several.
func TestModelStepSteadyStateAllocs(t *testing.T) {
	defer sched.SetWorkers(0)
	g := grid.New(grid.R2B(2))
	mask := grid.NewMask(g)
	for _, workers := range []int{1, 4} {
		for _, useGraph := range []bool{false, true} {
			sched.SetWorkers(workers)
			m := NewModel(g, mask, newTestDevice())
			m.UseGraph = useGraph
			f := testForcing(m.State)
			m.Step(1800, f)
			if n := testing.AllocsPerRun(10, func() { m.Step(1800, f) }); n != 0 {
				t.Errorf("workers=%d graph=%v: Model.Step allocates %v times per step, want 0", workers, useGraph, n)
			}
		}
	}
}
