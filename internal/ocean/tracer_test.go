package ocean

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"icoearth/internal/sched"
)

// --- serial reference ---------------------------------------------------
//
// The transport kernels this package ran before the cell-blocked sweep:
// a level-outer edge scatter over per-level flux stripes, vertical upwind
// and a tridiagonal built and factorised per column and per field. They
// stay here as the oracle: the sweep must reproduce them bit for bit.

// refSolveTri is the Thomas algorithm (in place, d overwritten).
func refSolveTri(a, b, c, d []float64) {
	n := len(d)
	for i := 1; i < n; i++ {
		m := a[i] / b[i-1]
		b[i] -= m * c[i-1]
		d[i] -= m * d[i-1]
	}
	d[n-1] /= b[n-1]
	for i := n - 2; i >= 0; i-- {
		d[i] = (d[i] - c[i]*d[i+1]) / b[i]
	}
}

// refDiffuseColumn solves the implicit vertical-diffusion system of column
// i of q; src, when non-nil, is added to the top right-hand side.
func refDiffuseColumn(s *State, kv float64, q []float64, i, wet int, src *float64, dt float64) {
	nlev := s.NLev
	a, b, c, d := make([]float64, wet), make([]float64, wet), make([]float64, wet), make([]float64, wet)
	for k := 0; k < wet; k++ {
		dz := s.Vert.Thickness(k)
		var up, dn float64
		if k > 0 {
			up = kv * dt / (dz * (s.Vert.ZFull[k] - s.Vert.ZFull[k-1]))
		}
		if k < wet-1 {
			dn = kv * dt / (dz * (s.Vert.ZFull[k+1] - s.Vert.ZFull[k]))
		}
		a[k] = -up
		b[k] = 1 + up + dn
		c[k] = -dn
		d[k] = q[i*nlev+k]
	}
	if src != nil {
		d[0] += *src
	}
	refSolveTri(a, b, c, d)
	copy(q[i*nlev:], d)
}

// refAdvectColumn is upwind vertical advection of column i of q.
func refAdvectColumn(s *State, q []float64, i, wet int, area, dt float64) {
	nlev := s.NLev
	var fAbove float64
	for k := 0; k < wet; k++ {
		var fBelow float64
		if k < wet-1 {
			mf := s.MassFluxVert[i*(nlev+1)+k+1]
			var qUp float64
			if mf >= 0 {
				qUp = q[i*nlev+k+1]
			} else {
				qUp = q[i*nlev+k]
			}
			fBelow = mf * qUp
		}
		vol := area * s.Vert.Thickness(k)
		q[i*nlev+k] += dt * (fBelow - fAbove) / vol
		fAbove = fBelow
	}
}

// refWetLevels is the level count by the loop over interfaces that
// State.wet tabulates.
func refWetLevels(s *State, i int) int {
	n := 0
	for k := 0; k < s.NLev; k++ {
		if s.Vert.ZIface[k] >= s.Depth[i] {
			break
		}
		n++
	}
	return max(n, 1)
}

// refAdvectTracer is the retired per-tracer transport.
func refAdvectTracer(s *State, kv float64, q []float64, dt float64) {
	g := s.G
	nlev := s.NLev
	tf := make([]float64, len(s.Edges))
	for k := 0; k < nlev; k++ {
		for ei := range s.Edges {
			c0, c1 := s.EdgeCells[ei][0], s.EdgeCells[ei][1]
			vol := s.MassFluxEdge[ei*nlev+k]
			if vol == 0 {
				tf[ei] = 0
				continue
			}
			var qUp float64
			if vol >= 0 {
				qUp = q[c0*nlev+k]
			} else {
				qUp = q[c1*nlev+k]
			}
			tf[ei] = vol * qUp
		}
		for ei := range s.Edges {
			c0, c1 := s.EdgeCells[ei][0], s.EdgeCells[ei][1]
			v0 := g.CellArea[s.Cells[c0]] * s.Vert.Thickness(k)
			v1 := g.CellArea[s.Cells[c1]] * s.Vert.Thickness(k)
			q[c0*nlev+k] -= dt * tf[ei] / v0
			q[c1*nlev+k] += dt * tf[ei] / v1
		}
	}
	for i, c := range s.Cells {
		wet := refWetLevels(s, i)
		refAdvectColumn(s, q, i, wet, g.CellArea[c], dt)
		if wet >= 2 {
			refDiffuseColumn(s, kv, q, i, wet, nil, dt)
		}
	}
}

// refAdvectTS is the retired T/S advection: level-outer flux stripes and
// scatter, then continuity and vertical upwind per column.
func refAdvectTS(s *State, dt float64) {
	g := s.G
	nlev := s.NLev
	tf, sf := make([]float64, len(s.Edges)), make([]float64, len(s.Edges))
	for k := 0; k < nlev; k++ {
		for ei, e := range s.Edges {
			c0, c1 := s.EdgeCells[ei][0], s.EdgeCells[ei][1]
			if s.Vert.ZIface[k] >= math.Min(s.Depth[c0], s.Depth[c1]) {
				tf[ei], sf[ei] = 0, 0
				s.MassFluxEdge[ei*nlev+k] = 0
				continue
			}
			u := s.U[ei*nlev+k] + s.Ub[ei]
			vol := u * g.EdgeLength[e] * s.Vert.Thickness(k)
			s.MassFluxEdge[ei*nlev+k] = vol
			var tUp, sUp float64
			if vol >= 0 {
				tUp, sUp = s.Temp[c0*nlev+k], s.Salt[c0*nlev+k]
			} else {
				tUp, sUp = s.Temp[c1*nlev+k], s.Salt[c1*nlev+k]
			}
			tf[ei] = vol * tUp
			sf[ei] = vol * sUp
		}
		for ei := range s.Edges {
			c0, c1 := s.EdgeCells[ei][0], s.EdgeCells[ei][1]
			volCell0 := g.CellArea[s.Cells[c0]] * s.Vert.Thickness(k)
			volCell1 := g.CellArea[s.Cells[c1]] * s.Vert.Thickness(k)
			s.Temp[c0*nlev+k] -= dt * tf[ei] / volCell0
			s.Temp[c1*nlev+k] += dt * tf[ei] / volCell1
			s.Salt[c0*nlev+k] -= dt * sf[ei] / volCell0
			s.Salt[c1*nlev+k] += dt * sf[ei] / volCell1
		}
	}
	w := make([]float64, nlev)
	for i, c := range s.Cells {
		wet := refWetLevels(s, i)
		for k := range w {
			w[k] = 0
		}
		for _, e := range g.CellEdges[c] {
			ei := s.EdgeIndex[e]
			if ei < 0 {
				continue
			}
			sign := -1.0
			if s.EdgeCells[ei][0] == i {
				sign = 1.0
			}
			for k := 0; k < wet; k++ {
				w[k] += sign * s.MassFluxEdge[ei*nlev+k]
			}
		}
		var cum float64
		s.MassFluxVert[i*(nlev+1)+wet] = 0
		for k := wet - 1; k >= 1; k-- {
			cum -= w[k]
			s.MassFluxVert[i*(nlev+1)+k] = cum
		}
		s.MassFluxVert[i*(nlev+1)] = 0
		refAdvectColumn(s, s.Temp, i, wet, g.CellArea[c], dt)
		refAdvectColumn(s, s.Salt, i, wet, g.CellArea[c], dt)
	}
}

// refVerticalMixing is the retired T/S mixing: one tridiagonal build and
// solve per column and field.
func refVerticalMixing(s *State, kv, dt float64, f *Forcing) {
	nlev := s.NLev
	dz0 := s.Vert.Thickness(0)
	for i := range s.Cells {
		wet := refWetLevels(s, i)
		if wet < 2 {
			s.Temp[i*nlev] += dt * f.HeatFlux[i] / (RhoWater * CpWater * dz0)
			continue
		}
		src := dt * f.HeatFlux[i] / (RhoWater * CpWater * dz0)
		refDiffuseColumn(s, kv, s.Temp, i, wet, &src, dt)
		src = -dt * s.Salt[i*nlev] * f.Freshwater[i] / (RhoWater * dz0)
		refDiffuseColumn(s, kv, s.Salt, i, wet, &src, dt)
	}
}

// --- fixtures -----------------------------------------------------------

// stirredOcean is testOcean with one single-level column, seeded random
// velocities and one completed step, so the stored mass fluxes are live and
// columns of every wet depth (1, shoaling, full) take part.
func stirredOcean(t testing.TB, seed int64) (*State, *Dynamics, *Forcing) {
	t.Helper()
	s := testOcean()
	s.Depth[len(s.Cells)/2] = 0.5 * s.Vert.ZIface[1]
	s.tabulateWet()
	var one, shoal, full bool
	for i := range s.Cells {
		w := s.WetLevels(i)
		if w != refWetLevels(s, i) {
			t.Fatalf("wet table %d != loop %d at cell %d", w, refWetLevels(s, i), i)
		}
		one = one || w == 1
		shoal = shoal || (w > 1 && w < s.NLev)
		full = full || w == s.NLev
	}
	if !one || !shoal || !full {
		t.Fatalf("fixture lacks a depth class: wet==1 %v, shoaling %v, full %v", one, shoal, full)
	}
	d := NewDynamics(s, 600)
	rng := rand.New(rand.NewSource(seed))
	for ei := range s.Ub {
		s.Ub[ei] = 0.05 * (2*rng.Float64() - 1)
	}
	for j := range s.U {
		s.U[j] = 0.02 * (2*rng.Float64() - 1)
	}
	f := NewForcing(s.NOcean())
	for i := range f.WindStress {
		f.WindStress[i] = 0.2 * (2*rng.Float64() - 1)
		f.HeatFlux[i] = 100 * (2*rng.Float64() - 1)
		f.Freshwater[i] = 1e-5 * (2*rng.Float64() - 1)
	}
	if err := d.Step(600, f); err != nil {
		t.Fatal(err)
	}
	return s, d, f
}

// randomTracers returns n seeded fields with both signs and exact zeros.
func randomTracers(s *State, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	qs := make([][]float64, n)
	for t := range qs {
		qs[t] = make([]float64, s.NOcean()*s.NLev)
		for j := range qs[t] {
			if rng.Intn(16) != 0 {
				qs[t][j] = 2*rng.Float64() - 0.5
			}
		}
	}
	return qs
}

func cloneFields(qs [][]float64) [][]float64 {
	out := make([][]float64, len(qs))
	for t := range qs {
		out[t] = append([]float64(nil), qs[t]...)
	}
	return out
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s differs at %d: got %x (%v), want %x (%v)",
				what, j, math.Float64bits(got[j]), got[j], math.Float64bits(want[j]), want[j])
		}
	}
}

// --- oracle -------------------------------------------------------------

// TestAdvectTracersMatchesSerialReference: the grouped cell-blocked sweep is
// byte-equal to the retired per-tracer scatter for every flow pattern,
// wet-depth class, timestep/diffusivity change, group remainder and pool
// width.
func TestAdvectTracersMatchesSerialReference(t *testing.T) {
	defer sched.SetWorkers(0)
	flows := []struct {
		name  string
		apply func(s *State)
	}{
		{"stepped", func(*State) {}},
		{"reversed", func(s *State) {
			for j := range s.MassFluxEdge {
				s.MassFluxEdge[j] = -s.MassFluxEdge[j]
			}
			for j := range s.MassFluxVert {
				s.MassFluxVert[j] = -s.MassFluxVert[j]
			}
		}},
		{"zero-flux edges", func(s *State) {
			nlev := s.NLev
			for ei := range s.Edges {
				switch ei % 5 {
				case 0: // a dead edge
					for k := 0; k < nlev; k++ {
						s.MassFluxEdge[ei*nlev+k] = 0
					}
				case 1: // signed zeros at single levels
					s.MassFluxEdge[ei*nlev+ei%nlev] = math.Copysign(0, -1)
				}
			}
		}},
	}
	// dt and VertDiffT both change between consecutive calls on one
	// Dynamics, so a stale factorisation table would show.
	calls := []struct{ dt, kv float64 }{{600, 1e-4}, {450, 1e-4}, {450, 3e-4}, {600, 3e-4}}
	for _, workers := range []int{1, 2, 4} {
		sched.SetWorkers(workers)
		for fi, flow := range flows {
			s, d, _ := stirredOcean(t, int64(11+fi))
			flow.apply(s)
			for _, n := range []int{1, 3, 4, 5, 19} {
				got := randomTracers(s, n, int64(100+n))
				want := cloneFields(got)
				for ci, c := range calls {
					d.VertDiffT = c.kv
					d.AdvectTracers(got, c.dt)
					for tr := range want {
						refAdvectTracer(s, c.kv, want[tr], c.dt)
						requireSameBits(t, fmt.Sprintf("workers=%d flow=%q n=%d call=%d tracer %d",
							workers, flow.name, n, ci, tr), got[tr], want[tr])
					}
				}
				// The single-field entry point is the same sweep.
				d.AdvectTracer(got[0], 600)
				refAdvectTracer(s, d.VertDiffT, want[0], 600)
				requireSameBits(t, "AdvectTracer", got[0], want[0])
			}
		}
	}
}

// TestOceanStepMatchesSerialReference: T/S advection (mass-flux pass,
// horizontal sweep, continuity, vertical upwind) and the table-driven
// vertical mixing are byte-equal to the retired level-outer kernels,
// stored mass fluxes included.
func TestOceanStepMatchesSerialReference(t *testing.T) {
	defer sched.SetWorkers(0)
	for _, workers := range []int{1, 2, 4} {
		sched.SetWorkers(workers)
		s, d, f := stirredOcean(t, 29)
		ref := *s
		ref.Temp = append([]float64(nil), s.Temp...)
		ref.Salt = append([]float64(nil), s.Salt...)
		ref.MassFluxEdge = append([]float64(nil), s.MassFluxEdge...)
		ref.MassFluxVert = append([]float64(nil), s.MassFluxVert...)
		for n, dt := range []float64{600, 450, 600} {
			d.VertDiffT = 1e-4 * float64(n+1)
			d.advectTS(dt)
			d.verticalMixing(dt, f)
			refAdvectTS(&ref, dt)
			refVerticalMixing(&ref, d.VertDiffT, dt, f)
			at := fmt.Sprintf("workers=%d call=%d ", workers, n)
			requireSameBits(t, at+"MassFluxEdge", s.MassFluxEdge, ref.MassFluxEdge)
			requireSameBits(t, at+"MassFluxVert", s.MassFluxVert, ref.MassFluxVert)
			requireSameBits(t, at+"Temp", s.Temp, ref.Temp)
			requireSameBits(t, at+"Salt", s.Salt, ref.Salt)
		}
	}
}

// TestAdvectTracersSteadyStateAllocs: after the first call has sized the
// per-slot scratch and built the tables, the sweep allocates nothing.
func TestAdvectTracersSteadyStateAllocs(t *testing.T) {
	s, d, _ := stirredOcean(t, 5)
	qs := randomTracers(s, 19, 7)
	d.AdvectTracers(qs, 600)
	if n := testing.AllocsPerRun(10, func() {
		d.AdvectTracers(qs, 600)
		d.AdvectTracer(qs[0], 600)
	}); n != 0 {
		t.Errorf("steady-state AdvectTracers allocates %v times per call", n)
	}
}

// --- rightness ----------------------------------------------------------

// flowRates scans the stored fluxes and returns, per unit time, the worst
// relative volume imbalance a cell sees in the horizontal and in the
// vertical pass (|net inflow| / volume, summed over the two passes) and the
// worst outflow rate (outflow / volume, the Courant number per unit dt).
func flowRates(s *State, d *Dynamics) (squeeze, courant float64) {
	nlev := s.NLev
	for i := range s.Cells {
		for k := 0; k < nlev; k++ {
			var net, out float64
			for _, ref := range d.Op.refs[d.Op.refStart[i]:d.Op.refStart[i+1]] {
				v := s.MassFluxEdge[int(ref>>1)*nlev+k]
				if ref&1 != 0 {
					v = -v
				}
				net -= v
				out += math.Max(v, 0)
			}
			up, dn := s.MassFluxVert[i*(nlev+1)+k], s.MassFluxVert[i*(nlev+1)+k+1]
			out += math.Max(up, 0) + math.Max(-dn, 0)
			squeeze = math.Max(squeeze, (math.Abs(net)+math.Abs(dn-up))/d.vol[i*nlev+k])
			courant = math.Max(courant, out/d.vol[i*nlev+k])
		}
	}
	return squeeze, courant
}

// rightnessTracers returns a random, a blob (0/1) and a uniform field.
func rightnessTracers(s *State) [][]float64 {
	nlev := s.NLev
	qs := randomTracers(s, 3, 17)
	for i, c := range s.Cells {
		lat, lon := s.G.CellCenter[c].LatLon()
		for k := 0; k < nlev; k++ {
			qs[1][i*nlev+k] = 0
			if lat > 0 && lon > 0 && k < 3 {
				qs[1][i*nlev+k] = 1
			}
			qs[2][i*nlev+k] = 2.5
		}
	}
	return qs
}

func inventories(s *State, qs [][]float64) []float64 {
	inv := make([]float64, len(qs))
	for tr, q := range qs {
		inv[tr] = s.TracerInventory(q)
	}
	return inv
}

// checkRightness asserts that every inventory closed to round-off and that
// the blob stayed in [0,1] and the uniform field uniform, each to slack.
func checkRightness(t *testing.T, s *State, qs [][]float64, inv0 []float64, slack float64) {
	t.Helper()
	for tr, inv := range inventories(s, qs) {
		if rel := math.Abs(inv-inv0[tr]) / math.Abs(inv0[tr]); rel > 1e-12 {
			t.Errorf("tracer %d inventory drift %e", tr, rel)
		}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range qs[1] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if lo < -slack || hi > 1+slack {
		t.Errorf("blob left [0,1]: min %v, max 1%+v (allowed %v)", lo, hi-1, slack)
	}
	var dev float64
	for _, v := range qs[2] {
		dev = math.Max(dev, math.Abs(v/2.5-1))
	}
	if dev > slack {
		t.Errorf("uniform field off by %v (allowed %v)", dev, slack)
	}
	t.Logf("blob range [%.3g, 1%+.3g], uniform off by %.3g, allowed %.3g", lo, hi-1, dev, slack)
}

// TestTracerTransportRightness checks what transport must get right rather
// than merely reproduce, over 50 steps at CFL < 1: inventories close to
// round-off, a blob gains no new extrema and a uniform field stays uniform.
//
// The last two are properties of donor-cell upwind under a flow that is
// non-divergent in each pass, which is the first case: a seeded random
// stream function per level (fluxes ψ(v1)−ψ(v0) close around every cell),
// at Courant number 0.5. The model's own flow is not of that kind. Tracer
// cells keep their volume while the free surface moves, and the horizontal
// pass runs before the vertical one rather than from the same old state, so
// a pass with net inflow δV into a cell scales its content by 1+δV/V
// whatever the fluxes carry. The second case, seeded random winds, sums
// that bound from the stored fluxes and allows nothing beyond it.
func TestTracerTransportRightness(t *testing.T) {
	t.Run("non-divergent flow", func(t *testing.T) {
		s := testOcean()
		d := NewDynamics(s, 600)
		g := s.G
		nlev := s.NLev
		rng := rand.New(rand.NewSource(3))
		qs := rightnessTracers(s)
		inv0 := inventories(s, qs)
		psi := make([]float64, g.NVerts)
		const dt = 600.0
		var residual float64
		for n := 0; n < 50; n++ {
			for k := 0; k < nlev; k++ {
				// ψ vanishes on every vertex of a cell that is land or dry
				// at this level, so closed edges carry no flux.
				for v := range psi {
					psi[v] = 2*rng.Float64() - 1
					for _, c := range g.VertCells[v] {
						if i := s.CellIndex[c]; i < 0 || s.WetLevels(i) <= k {
							psi[v] = 0
						}
					}
				}
				for ei, e := range s.Edges {
					s.MassFluxEdge[ei*nlev+k] = psi[g.EdgeVerts[e][1]] - psi[g.EdgeVerts[e][0]]
				}
			}
			// Scale the flow to Courant number 0.5 at the model's timestep.
			_, courant := flowRates(s, d)
			for j := range s.MassFluxEdge {
				s.MassFluxEdge[j] *= 0.5 / (courant * dt)
			}
			squeeze, _ := flowRates(s, d)
			residual += dt * squeeze
			d.AdvectTracers(qs, dt)
		}
		if residual > 1e-13 {
			t.Fatalf("fixture flow is divergent: %v", residual)
		}
		checkRightness(t, s, qs, inv0, 1e-12)
	})

	t.Run("wind-driven flow", func(t *testing.T) {
		s := testOcean()
		d := NewDynamics(s, 600)
		rng := rand.New(rand.NewSource(3))
		f := NewForcing(s.NOcean())
		qs := rightnessTracers(s)
		inv0 := inventories(s, qs)
		const dt = 600.0
		var bound, maxCourant float64
		for n := 0; n < 50; n++ {
			for i := range f.WindStress {
				f.WindStress[i] = 0.3 * (2*rng.Float64() - 1)
			}
			if err := d.Step(dt, f); err != nil {
				t.Fatal(err)
			}
			squeeze, courant := flowRates(s, d)
			bound += dt * squeeze
			maxCourant = math.Max(maxCourant, dt*courant)
			d.AdvectTracers(qs, dt)
		}
		if maxCourant >= 1 || maxCourant == 0 {
			t.Fatalf("fixture Courant number %v", maxCourant)
		}
		checkRightness(t, s, qs, inv0, math.Expm1(bound))
	})
}
