package bgc

import (
	"math"
	"math/rand"
	"testing"

	"icoearth/internal/exec"
	"icoearth/internal/ocean"
	"icoearth/internal/sched"
)

// The kernels this package ran until PR 21, kept as byte-equality
// references: one math.Pow and one math.Exp per wet cell-level in the
// ecosystem, a serial per-cell air–sea exchange, one sweep per particle
// tracer in the sinking. They recompute everything from State and Params on
// every call and run on the calling goroutine.

// oracleSolveCarbonate is the solve the §17 re-baseline retired: 60
// bisections of the alkalinity balance on the geometric mean of a pH
// bracket. The closed-form root must stay near it; the tests that use it
// name how near.
func oracleSolveCarbonate(dic, alk, tC float64) (h, co2 float64) {
	if dic <= 0 || alk <= 0 {
		return 1e-8, 0
	}
	k1, k2 := k1k2(tC)
	alkOf := func(h float64) float64 {
		d := h*h + k1*h + k1*k2
		hco3 := dic * k1 * h / d
		co3 := dic * k1 * k2 / d
		return hco3 + 2*co3
	}
	lo, hi := 1e-12, 1e-2
	for i := 0; i < 60; i++ {
		mid := math.Sqrt(lo * hi)
		if alkOf(mid) > alk {
			lo = mid
		} else {
			hi = mid
		}
	}
	h = math.Sqrt(lo * hi)
	d := h*h + k1*h + k1*k2
	co2 = dic * h * h / d
	return h, co2
}

func oraclePCO2(dic, alk, tC float64) float64 {
	_, co2 := oracleSolveCarbonate(dic, alk, tC)
	return co2 / k0CO2(tC) * 1e3
}

// oracleAirSeaFlux is the retired serial exchange on the live solver.
func oracleAirSeaFlux(s *State, dt float64, pco2Atm, wind, iceFrac []float64) {
	oracleAirSeaFluxOn(s, dt, pco2Atm, wind, iceFrac, PCO2)
}

func oracleAirSeaFluxOn(s *State, dt float64, pco2Atm, wind, iceFrac []float64, pco2Of func(dic, alk, tC float64) float64) {
	oc := s.Oc
	nlev := oc.NLev
	dz0 := oc.Vert.Thickness(0)
	for i := range oc.Cells {
		idx := i * nlev
		tC := oc.Temp[idx]
		pOc := pco2Of(s.Tracers[TrDIC][idx], s.Tracers[TrAlk][idx], tC)
		k := GasTransferVelocity(wind[i]) * (1 - iceFrac[i])
		flux := k * k0CO2(tC) * (pco2Atm[i] - pOc) * 1e-3
		maxOut := s.Tracers[TrDIC][idx] * dz0 / dt * 0.5
		if flux < -maxOut {
			flux = -maxOut
		}
		s.Tracers[TrDIC][idx] += flux * dt / dz0
		s.CumAirSea[i] += flux * dt
		s.LastCO2Flux[i] = flux * MolMassCO2
	}
}

var oracleClipTracers = [...]int{TrPO4, TrNO3, TrSiO4, TrFe, TrO2, TrDMS, TrN2O}

func oracleEcosystem(s *State, dt float64, p *Params, swDown []float64) {
	oc := s.Oc
	nlev := oc.NLev
	for i := range oc.Cells {
		sw := swDown[i]
		light := sw
		for k := 0; k < nlev; k++ {
			idx := i*nlev + k
			z0 := oc.Vert.ZIface[k]
			z1 := oc.Vert.ZIface[k+1]
			if z0 >= oc.Depth[i] {
				break
			}
			light = sw * math.Exp(-p.LightK*0.5*(z0+z1))
			tC := oc.Temp[idx]
			q10 := math.Pow(p.Q10, (tC-20)/10)

			phy := s.Tracers[TrPhy][idx]
			zoo := s.Tracers[TrZoo][idx]
			po4 := s.Tracers[TrPO4][idx]
			fe := s.Tracers[TrFe][idx]

			fL := light / (light + p.LightHalf)
			fP := po4 / (po4 + p.KPO4)
			fFe := fe / (fe + p.KFe)
			lim := math.Min(fP, fFe)
			growth := p.MuMax * q10 * fL * lim * phy * dt
			growth = math.Min(growth, po4*RedfieldCP*0.9)
			growth = math.Min(growth, s.Tracers[TrDIC][idx]*0.5)

			graze := p.GrazeMax * q10 * phy / (phy + p.KGraze) * zoo * dt
			graze = math.Min(graze, phy*0.9)
			assim := p.AssimEff * graze
			egest := graze - assim

			phyMort := p.PhyMort * q10 * phy * dt
			zooMort := p.ZooMort * q10 * zoo * zoo / (zoo + 1e-4) * dt

			o2 := s.Tracers[TrO2][idx]
			fO2 := o2 / (o2 + 0.03)
			docRem := p.DOCRemin * q10 * fO2 * s.Tracers[TrDOC][idx] * dt
			detRem := p.DetRemin * q10 * fO2 * s.Tracers[TrDet][idx] * dt

			caco3Prod := p.CaCO3Frac * growth
			opalProd := p.OpalFrac * growth * (s.Tracers[TrSiO4][idx] / (s.Tracers[TrSiO4][idx] + 1e-3))
			caco3Diss := p.CaCO3Diss * s.Tracers[TrCaCO3][idx] * dt
			opalDiss := p.OpalDiss * s.Tracers[TrOpal][idx] * dt

			s.Tracers[TrPhy][idx] += growth - graze - phyMort
			s.Tracers[TrZoo][idx] += assim - zooMort
			s.Tracers[TrDOC][idx] += 0.3*phyMort + 0.3*zooMort - docRem
			s.Tracers[TrDet][idx] += 0.7*phyMort + 0.7*zooMort + egest - detRem
			s.Tracers[TrDIC][idx] += docRem + detRem + caco3Diss - growth - caco3Prod
			s.Tracers[TrCaCO3][idx] += caco3Prod - caco3Diss
			s.Tracers[TrAlk][idx] += 2 * (caco3Diss - caco3Prod)
			orgNet := growth - docRem - detRem
			s.Tracers[TrPO4][idx] -= orgNet / RedfieldCP
			s.Tracers[TrNO3][idx] -= orgNet / RedfieldCP * RedfieldNP
			s.Tracers[TrFe][idx] -= orgNet / RedfieldCP * 1e-3
			s.Tracers[TrSiO4][idx] += opalDiss - opalProd
			s.Tracers[TrOpal][idx] += opalProd - opalDiss
			s.Tracers[TrO2][idx] += orgNet / RedfieldCP * RedfieldOP
			s.Tracers[TrDMS][idx] += p.DMSYield * (phyMort + graze)
			s.Tracers[TrDMS][idx] *= 1 - dt/(5*86400)
			s.Tracers[TrN2O][idx] += 1e-6 * detRem
			if o2 < 0.005 {
				s.Tracers[TrH2S][idx] += 1e-3 * detRem
			}
			for _, t := range oracleClipTracers {
				if s.Tracers[t][idx] < 0 {
					s.Tracers[t][idx] = 0
				}
			}
		}
	}
}

func oracleSinking(s *State, dt float64, p *Params) {
	oc := s.Oc
	nlev := oc.NLev
	for _, tr := range [...]int{TrDet, TrCaCO3, TrOpal} {
		q := s.Tracers[tr]
		for i := range oc.Cells {
			wet := oc.WetLevels(i)
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

// oraclePair returns two states over the testSetup ocean that share every
// bit: the kernels under test step the first, the retired bodies the
// second. setTemp, when not nil, overwrites the ocean temperature first
// (both states read the one ocean).
func oraclePair(setTemp func(temp []float64)) (got, want *State) {
	oc, _, got := testSetup()
	if setTemp != nil {
		setTemp(oc.Temp)
	}
	return got, NewState(oc)
}

// requireSameState fails unless all 19 tracers, CumAirSea and LastCO2Flux
// of the two states are byte-equal.
func requireSameState(t *testing.T, what string, got, want *State) {
	t.Helper()
	same := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %s has %d values, want %d", what, name, len(a), len(b))
		}
		for j := range b {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Fatalf("%s: %s[%d] = %v (%#x), want %v (%#x)", what, name, j,
					a[j], math.Float64bits(a[j]), b[j], math.Float64bits(b[j]))
			}
		}
	}
	for tr := range want.Tracers {
		same("tracer "+string(rune('A'+tr)), got.Tracers[tr], want.Tracers[tr])
	}
	same("CumAirSea", got.CumAirSea, want.CumAirSea)
	same("LastCO2Flux", got.LastCO2Flux, want.LastCO2Flux)
}

// oracleTemps are the temperature fields the kernels are held to: the
// analytic initial state, SST randomised over −2…30 °C, and every level
// pinned to exactly 15 and 25 °C, where (tC−20)/10 is ∓½ and Pow takes its
// square-root special cases.
var oracleTemps = []struct {
	name string
	set  func(temp []float64)
}{
	{"analytic", nil},
	{"random", func(temp []float64) {
		rng := rand.New(rand.NewSource(21))
		for j := range temp {
			temp[j] = -2 + 32*rng.Float64()
		}
	}},
	{"15C", func(temp []float64) { fill(temp, 15) }},
	{"25C", func(temp []float64) { fill(temp, 25) }},
	{"20C", func(temp []float64) { fill(temp, 20) }},
	{"30C", func(temp []float64) { fill(temp, 30) }},
}

func fill(x []float64, v float64) {
	for j := range x {
		x[j] = v
	}
}

const oracleSteps = 24

func TestEcosystemMatchesRetiredKernel(t *testing.T) {
	for _, tc := range oracleTemps {
		got, want := oraclePair(tc.set)
		sw, _, _, _ := surfaceFields(got.Oc)
		p := DefaultParams()
		for n := 0; n < oracleSteps; n++ {
			got.EcosystemKernel(1800, &p, sw)
			oracleEcosystem(want, 1800, &p, sw)
			requireSameState(t, tc.name, got, want)
		}
	}
}

func TestSinkingMatchesRetiredKernel(t *testing.T) {
	got, want := oraclePair(nil)
	p := DefaultParams()
	for n := 0; n < oracleSteps; n++ {
		dt := 1800.0
		if n%5 == 4 {
			dt = 40000 // SinkSpeed·dt exceeds the upper layers: the min(1, ·) cap
		}
		got.SinkingKernel(dt, &p)
		oracleSinking(want, dt, &p)
		requireSameState(t, "sinking", got, want)
	}
}

func TestAirSeaMatchesRetiredKernel(t *testing.T) {
	for _, tc := range oracleTemps {
		got, want := oraclePair(tc.set)
		_, pco2, wind, ice := surfaceFields(got.Oc)
		rng := rand.New(rand.NewSource(5))
		for i := range wind {
			wind[i] = 15 * rng.Float64()
			ice[i] = math.Max(0, 2*rng.Float64()-1)
			pco2[i] = 280 + 400*rng.Float64()
		}
		for n := 0; n < oracleSteps; n++ {
			got.AirSeaFluxKernel(1800, pco2, wind, ice)
			oracleAirSeaFlux(want, 1800, pco2, wind, ice)
			requireSameState(t, tc.name, got, want)
		}
	}
}

// TestKernelsMatchRetiredStep: the three kernels in sequence behind a
// stirred ocean and the shared transport, so each is fed what the others
// and the advection leave behind rather than its own fixed point.
func TestKernelsMatchRetiredStep(t *testing.T) {
	for _, tc := range oracleTemps {
		oc, dyn, got := testSetup()
		want := NewState(oc)
		sw, pco2, wind, ice := surfaceFields(oc)
		for ei := range oc.Edges {
			oc.Ub[ei] = 0.03 * math.Sin(float64(ei))
		}
		f := ocean.NewForcing(oc.NOcean())
		p := DefaultParams()
		for n := 0; n < oracleSteps; n++ {
			if err := dyn.Step(1800, f); err != nil {
				t.Fatal(err)
			}
			if tc.set != nil {
				tc.set(oc.Temp)
			}
			dyn.AdvectTracers(got.Tracers[:], 1800)
			got.EcosystemKernel(1800, &p, sw)
			got.SinkingKernel(1800, &p)
			got.AirSeaFluxKernel(1800, pco2, wind, ice)
			dyn.AdvectTracers(want.Tracers[:], 1800)
			oracleEcosystem(want, 1800, &p, sw)
			oracleSinking(want, 1800, &p)
			oracleAirSeaFlux(want, 1800, pco2, wind, ice)
			requireSameState(t, tc.name, got, want)
		}
	}
}

// TestTablesFollowParams: LightK, Q10, SinkSpeed and dt changed between
// calls on one State must reach the kernels — the tables are keyed on the
// parameter bits — including a base Pow special-cases (Q10 = 1, 0, NaN).
func TestTablesFollowParams(t *testing.T) {
	got, want := oraclePair(nil)
	sw, _, _, _ := surfaceFields(got.Oc)
	p := DefaultParams()
	step := func(what string, dt float64) {
		t.Helper()
		got.EcosystemKernel(dt, &p, sw)
		got.SinkingKernel(dt, &p)
		oracleEcosystem(want, dt, &p, sw)
		oracleSinking(want, dt, &p)
		requireSameState(t, what, got, want)
	}
	step("defaults", 1800)
	p.LightK = 0.031
	step("LightK", 1800)
	p.Q10 = 2.5
	step("Q10", 1800)
	p.SinkSpeed *= 3
	step("SinkSpeed", 1800)
	step("dt", 600)
	for _, q := range []float64{1, 1e-200, 0} {
		p.Q10 = q
		step("Q10 special", 600)
	}
}

// TestStateByStructLiteral: a State assembled without NewState gets its
// bodies and tables on the first kernel call.
func TestStateByStructLiteral(t *testing.T) {
	ref, want := oraclePair(nil)
	got := &State{Oc: ref.Oc, Tracers: ref.Tracers,
		CumAirSea: ref.CumAirSea, LastCO2Flux: ref.LastCO2Flux}
	sw, pco2, wind, ice := surfaceFields(got.Oc)
	p := DefaultParams()
	got.EcosystemKernel(1800, &p, sw)
	got.SinkingKernel(1800, &p)
	got.AirSeaFluxKernel(1800, pco2, wind, ice)
	oracleEcosystem(want, 1800, &p, sw)
	oracleSinking(want, 1800, &p)
	oracleAirSeaFlux(want, 1800, pco2, wind, ice)
	requireSameState(t, "struct literal", got, want)
}

// TestSolveCarbonateNearBisection: the closed-form root stays within 1e-12
// relative of the retired 60-step bisection, in [H⁺], dissolved CO₂ and
// pCO₂, over DIC 1.5…2.5, alkalinity 1.8…2.8 mol/m³ and −2…32 °C — both
// signs of the quadratic's linear coefficient, alk on either side of DIC —
// and takes the bisection's way out of every degenerate input: (1e-8, 0)
// for a non-positive DIC or alkalinity, the lower bound hLo where
// alk ≥ 2·dic leaves no positive root.
func TestSolveCarbonateNearBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	near := func(what string, got, want, dic, alk, tC float64) {
		t.Helper()
		if rel := math.Abs(got-want) / want; !(rel <= 1e-12) {
			t.Fatalf("%s(%v, %v, %v) = %v, bisection gives %v (relative %v, allowed 1e-12)", what, dic, alk, tC, got, want, rel)
		}
	}
	var acidSide, baseSide int
	for n := 0; n < 200_000; n++ {
		dic, alk, tC := 1.5+rng.Float64(), 1.8+rng.Float64(), -2+34*rng.Float64()
		if alk < dic {
			acidSide++
		} else {
			baseSide++
		}
		h, co2 := SolveCarbonate(dic, alk, tC)
		wh, wco2 := oracleSolveCarbonate(dic, alk, tC)
		near("h", h, wh, dic, alk, tC)
		near("co2", co2, wco2, dic, alk, tC)
		near("PCO2", PCO2(dic, alk, tC), oraclePCO2(dic, alk, tC), dic, alk, tC)
	}
	if acidSide == 0 || baseSide == 0 {
		t.Fatalf("draws cover one sign of alk−dic only: %d below, %d above", acidSide, baseSide)
	}
	for _, in := range [][3]float64{{0, 2.3, 15}, {-1, 2.3, 15}, {2, 0, 15}, {2, -1, 15}} {
		h, co2 := SolveCarbonate(in[0], in[1], in[2])
		wh, wco2 := oracleSolveCarbonate(in[0], in[1], in[2])
		if h != 1e-8 || co2 != 0 || wh != h || wco2 != co2 {
			t.Errorf("SolveCarbonate(%v) = (%v, %v), bisection (%v, %v), want (1e-8, 0)", in, h, co2, wh, wco2)
		}
	}
	for _, in := range [][3]float64{{1, 2, 15}, {1, 2.5, 0}, {0.5, 2.8, 30}} {
		h, co2 := SolveCarbonate(in[0], in[1], in[2])
		wh, wco2 := oracleSolveCarbonate(in[0], in[1], in[2])
		if h != hLo {
			t.Errorf("SolveCarbonate(%v): h = %v, want the lower bound %v", in, h, hLo)
		}
		near("h at the bound", h, wh, in[0], in[1], in[2])
		near("co2 at the bound", co2, wco2, in[0], in[1], in[2])
	}
}

// TestAirSeaNearBisectionKernel: 24 exchanges on the closed-form root leave
// surface DIC, the cumulative exchange and the flux within 1e-11 of each
// field's magnitude of the retired kernel on the bisection.
func TestAirSeaNearBisectionKernel(t *testing.T) {
	got, want := oraclePair(oracleTemps[1].set)
	_, pco2, wind, ice := surfaceFields(got.Oc)
	rng := rand.New(rand.NewSource(5))
	for i := range wind {
		wind[i] = 15 * rng.Float64()
		ice[i] = math.Max(0, 2*rng.Float64()-1)
		pco2[i] = 280 + 400*rng.Float64()
	}
	for n := 0; n < oracleSteps; n++ {
		got.AirSeaFluxKernel(1800, pco2, wind, ice)
		oracleAirSeaFluxOn(want, 1800, pco2, wind, ice, oraclePCO2)
	}
	for name, f := range map[string][2][]float64{
		"DIC":         {got.Tracers[TrDIC], want.Tracers[TrDIC]},
		"CumAirSea":   {got.CumAirSea, want.CumAirSea},
		"LastCO2Flux": {got.LastCO2Flux, want.LastCO2Flux},
	} {
		var scale, worst float64
		for _, v := range f[1] {
			scale = math.Max(scale, math.Abs(v))
		}
		for j := range f[1] {
			worst = math.Max(worst, math.Abs(f[0][j]-f[1][j])/scale)
		}
		if !(worst <= 1e-11) || worst == 0 && name != "DIC" {
			t.Errorf("%s: %v of its magnitude from the bisection kernel (allowed 1e-11, and not 0)", name, worst)
		}
	}
}

// truncated returns a copy of the testSetup ocean cut to its first n
// compact cells, with every per-cell field the BGC kernels read.
func truncated(oc *ocean.State, n int) *ocean.State {
	cut := *oc
	cut.Cells = oc.Cells[:n]
	cut.Depth = oc.Depth[:n]
	cut.Temp = oc.Temp[:n*oc.NLev]
	return &cut
}

// TestAirSeaRemainders: ranges of every small length — at one worker the
// range is all of NOcean, at three it is a sched block of 1…7 cells — with
// a dead cell (DIC, then alkalinity, ≤ 0) moved through the first eight
// positions; a dead cell has (1e-8, 0), no dissolved CO₂, so the ocean
// side of its gradient vanishes.
func TestAirSeaRemainders(t *testing.T) {
	defer sched.SetWorkers(0)
	full, _, _ := testSetup()
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 128, 150, 190, 220, full.NOcean()} {
		for _, workers := range []int{1, 3} {
			sched.SetWorkers(workers)
			oc := truncated(full, n)
			got, want := NewState(oc), NewState(oc)
			_, pco2, wind, ice := surfaceFields(oc)
			for dead := 0; dead < min(n, 8); dead++ {
				for _, kill := range []struct {
					tr int
					v  float64
				}{{TrDIC, 0}, {TrAlk, -0.5}} {
					got.Tracers[kill.tr][dead*oc.NLev] = kill.v
					want.Tracers[kill.tr][dead*oc.NLev] = kill.v
					got.AirSeaFluxKernel(900, pco2, wind, ice)
					oracleAirSeaFlux(want, 900, pco2, wind, ice)
					requireSameState(t, "remainder", got, want)
					k := GasTransferVelocity(wind[dead]) * (1 - ice[dead])
					if f := k * k0CO2(oc.Temp[dead*oc.NLev]) * (pco2[dead] - 0) * 1e-3 * MolMassCO2; got.LastCO2Flux[dead] != f {
						t.Fatalf("n=%d workers=%d dead cell %d: flux %v, want %v", n, workers, dead, got.LastCO2Flux[dead], f)
					}
				}
			}
		}
	}
}

// TestKernelsWorkerInvariant: each kernel alone leaves the same bytes at
// pool widths 1, 2 and 4.
func TestKernelsWorkerInvariant(t *testing.T) {
	defer sched.SetWorkers(0)
	run := func(workers int) *State {
		sched.SetWorkers(workers)
		_, _, s := testSetup()
		sw, pco2, wind, ice := surfaceFields(s.Oc)
		p := DefaultParams()
		for n := 0; n < 5; n++ {
			s.EcosystemKernel(1800, &p, sw)
			s.SinkingKernel(1800, &p)
			s.AirSeaFluxKernel(1800, pco2, wind, ice)
		}
		return s
	}
	want := run(1)
	for _, workers := range []int{2, 4} {
		requireSameState(t, "workers", run(workers), want)
	}
}

// TestSteadyStateAllocs: after the first call has bound the bodies and
// built the tables, neither the kernels nor a whole Model.Step allocate.
func TestSteadyStateAllocs(t *testing.T) {
	oc, dyn, s := testSetup()
	sw, pco2, wind, ice := surfaceFields(oc)
	p := DefaultParams()
	for name, f := range map[string]func(){
		"EcosystemKernel":  func() { s.EcosystemKernel(600, &p, sw) },
		"SinkingKernel":    func() { s.SinkingKernel(600, &p) },
		"AirSeaFluxKernel": func() { s.AirSeaFluxKernel(600, pco2, wind, ice) },
	} {
		if n := testing.AllocsPerRun(10, f); n != 0 {
			t.Errorf("%s allocates %v times per call", name, n)
		}
	}
	if err := dyn.Step(600, ocean.NewForcing(oc.NOcean())); err != nil {
		t.Fatal(err)
	}
	for _, concurrent := range []bool{false, true} {
		m := NewModel(oc, exec.NewDevice(exec.DeviceSpec{Name: "cpu", MemBW: 450e9, HalfSatBytes: 4e6}))
		m.Concurrent = concurrent
		if n := testing.AllocsPerRun(10, func() { m.Step(600, dyn, sw, pco2, wind, ice) }); n != 0 {
			t.Errorf("Model.Step (concurrent %v) allocates %v times per call", concurrent, n)
		}
	}
}
