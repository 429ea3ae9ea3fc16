package land

import "math"

// The vegetation carbon cycle. All pool transfers are internal (conserve
// carbon); only GPP (uptake) and respiration (release) cross the
// land–atmosphere boundary, and both are accumulated into CumNEE so the
// conservation invariant TotalCarbon + Σ CumNEE·area = const can be
// asserted.

// CToCO2 converts a carbon mass flux to a CO₂ mass flux (molar masses
// 44/12).
const CToCO2 = 44.0 / 12.0

// decayChain describes the litter/soil cascade: each source pool decays
// with rate k (1/s at 25 °C); a fraction toNext continues to the next pool
// and the remainder respires to the atmosphere.
var decayChain = []struct {
	src, dst int
	k        float64
	toNext   float64
}{
	{PoolLitAbA, PoolSoilFast, 1.0 / (0.8 * 365 * 86400), 0.35},
	{PoolLitAbW, PoolSoilFast, 1.0 / (1.5 * 365 * 86400), 0.35},
	{PoolLitAbE, PoolSoilFast, 1.0 / (1.0 * 365 * 86400), 0.3},
	{PoolLitAbN, PoolSoilSlow, 1.0 / (4.0 * 365 * 86400), 0.4},
	{PoolLitBeA, PoolSoilFast, 1.0 / (1.2 * 365 * 86400), 0.4},
	{PoolLitBeW, PoolSoilFast, 1.0 / (2.0 * 365 * 86400), 0.4},
	{PoolLitBeE, PoolSoilSlow, 1.0 / (1.5 * 365 * 86400), 0.35},
	{PoolLitBeN, PoolSoilSlow, 1.0 / (5.0 * 365 * 86400), 0.45},
	{PoolDebris, PoolSoilSlow, 1.0 / (12 * 365 * 86400), 0.5},
	{PoolSeedBank, PoolSoilFast, 1.0 / (2 * 365 * 86400), 0.3},
	{PoolExudates, PoolSoilFast, 1.0 / (0.1 * 365 * 86400), 0.2},
	{PoolSoilFast, PoolHumus1, 1.0 / (8 * 365 * 86400), 0.45},
	{PoolSoilSlow, PoolHumus1, 1.0 / (25 * 365 * 86400), 0.5},
	{PoolHumus1, PoolHumus2, 1.0 / (120 * 365 * 86400), 0.55},
	{PoolHumus2, PoolCharcoal, 1.0 / (900 * 365 * 86400), 0.3},
	{PoolCharcoal, PoolCharcoal, 1.0 / (5000 * 365 * 86400), 0},
}

// vegetation runs the five vegetation processes — phenology,
// photosynthesis, allocation, turnover, decay — of every PFT with cover on
// land cell i, PFT by PFT, under shortwave sw. What depends on the cell
// alone (its temperatures, moistures and the two Q10 factors) is
// evaluated once for all PFTs, and phenology's temperature and moisture
// factors once for phenology and photosynthesis: the vegetation processes
// write no soil state, so each is the value every process computed.
func (m *Model) vegetation(i int, sw float64) {
	s, t, dt := m.State, &m.tab, m.dt
	tC := s.SoilTemp[i*NSoil] - TMelt
	moist := s.SoilMoist[i*NSoil]
	q10Ra := t.q10Ra.Pow((tC - 25) / 10)
	tSoil := s.SoilTemp[i*NSoil+1] - TMelt // upper-soil temperature drives Rh
	q10Rh := t.q10Rh.Pow((tSoil - 25) / 10)
	fWRh := 0.2 + 0.8*math.Min(1, s.SoilMoist[i*NSoil+1]/0.5)
	for p := range NumPFT {
		idx := i*NumPFT + p
		cov := s.Cover[idx]
		if cov == 0 {
			continue
		}
		pft := &s.PFTs[p]
		pool := (*[NumPools]float64)(s.Pools[idx*NumPools:])

		// Phenology: leaf carbon relaxes toward the climate-driven target
		// LAI; leaf flush draws from the reserve pool, shedding goes to
		// above-ground green litter.
		fT := math.Exp(-(tC - pft.TOpt) * (tC - pft.TOpt) / (2 * pft.TRange * pft.TRange))
		fW := math.Min(1, moist/pft.MoistThresh)
		targetLAI := pft.LAIMax * fT * fW * cov
		targetLeaf := targetLAI / pft.SLA
		leaf := pool[PoolLeaf]
		adj := (targetLeaf - leaf) * t.phenology
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
		lai := pool[PoolLeaf] * pft.SLA
		s.LAI[idx] = lai

		// Photosynthesis: GPP less autotrophic respiration (maintenance of
		// the live pools with a Q10 response, growth at 25% of positive
		// assimilate) is the NPP, which lands in the reserve pool.
		apar := 0.5 * sw * (1 - math.Exp(-0.5*lai)) * cov * 1e-6 // absorbed PAR, MJ/m²/s
		gpp := pft.LUE * apar * fT * fW                          // kg C/m²/s
		live := pool[PoolLeaf] + pool[PoolRoot] + 0.05*pool[PoolWood]
		ra := pft.RespFactor * live * q10Ra
		if gpp > ra {
			ra += 0.25 * (gpp - ra)
		}
		n := gpp - ra
		s.NPPAvg[idx] += t.nppSmoothing * (n - s.NPPAvg[idx])
		s.CumNEE[i] -= n * dt // uptake crosses the boundary here
		if n >= 0 {
			pool[PoolReserve] += n * dt
		} else {
			// Negative NPP draws the reserve down, then the leaves.
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

		// Allocation: reserve carbon to the structural pools with the
		// PFT's allocation fractions.
		if avail := pool[PoolReserve] * t.allocation; !(avail <= 0) {
			pool[PoolReserve] -= avail * (pft.AllocLeaf + pft.AllocWood + pft.AllocRoot + pft.AllocFruit)
			pool[PoolLeaf] += avail * pft.AllocLeaf
			pool[PoolWood] += avail * pft.AllocWood
			pool[PoolRoot] += avail * pft.AllocRoot
			pool[PoolFruit] += avail * pft.AllocFruit
			s.LAI[idx] = pool[PoolLeaf] * pft.SLA
		}

		// Turnover: structural carbon into the litter cascade; fruit
		// becomes seed bank and exudates.
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

		// Decay: the litter/soil cascade; the respired fraction of every
		// transfer is heterotrophic respiration, released to the
		// atmosphere.
		var rh float64
		for _, st := range decayChain {
			out := pool[st.src] * st.k * q10Rh * fWRh * dt
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

// TotalLAI returns the cell-mean LAI (sum over PFTs) of compact cell i.
func (s *State) TotalLAI(i int) float64 {
	var l float64
	for p := 0; p < NumPFT; p++ {
		l += s.LAI[i*NumPFT+p]
	}
	return l
}
