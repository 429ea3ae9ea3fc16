package ocean

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"icoearth/internal/grid"
	"icoearth/internal/sched"
	"icoearth/internal/vertical"
)

// --- serial reference ---------------------------------------------------
//
// The live arithmetic written the plain way: one cell, one level, one
// tracer at a time, every weight taken straight from the stored fluxes where
// it is used — no coefficient table, no reciprocal table, no factorisation
// table, no grouping, no pool. The sweep must reproduce it bit for bit.

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

// refIncidence lists each cell's wet edges in ascending edge order, as
// {edge, neighbour, +1 where a positive flux leaves the cell / −1 where it
// enters}, by the serial edge scatter whose arrival order the sweep keeps.
func refIncidence(s *State) [][][3]int {
	inc := make([][][3]int, len(s.Cells))
	for ei, ec := range s.EdgeCells {
		inc[ec[0]] = append(inc[ec[0]], [3]int{ei, ec[1], 1})
		inc[ec[1]] = append(inc[ec[1]], [3]int{ei, ec[0], -1})
	}
	return inc
}

// refTransport is the unsplit donor-cell update of one tracer: every wet
// cell-level becomes the weighted sum of its own old value, the old values
// above and below and the old values of the three edge neighbours, each
// inflow |F| weighing its donor by dt·|F|/V and every outflow coming off
// the level's own weight. A closed side weighs nothing and reads the cell
// itself, as do the level above the top and the level below the bottom.
// diffuse adds the implicit vertical diffusion of the updated column.
func refTransport(s *State, kv float64, q []float64, dt float64, diffuse bool) {
	nlev := s.NLev
	old := append([]float64(nil), q...)
	for i, edges := range refIncidence(s) {
		wet := refWetLevels(s, i)
		for k := 0; k < wet; k++ {
			h := 0.5 * dt * (1 / (s.G.CellArea[s.Cells[i]] * s.Vert.Thickness(k)))
			up, dn := s.MassFluxVert[i*(nlev+1)+k], s.MassFluxVert[i*(nlev+1)+k+1]
			out := (math.Abs(up) + up) + (math.Abs(dn) - dn)
			nb := [3]float64{old[i*nlev+k], old[i*nlev+k], old[i*nlev+k]}
			var wn [3]float64
			for j, e := range edges {
				f := float64(e[2]) * s.MassFluxEdge[e[0]*nlev+k]
				out += math.Abs(f) + f
				wn[j] = h * (math.Abs(f) - f)
				nb[j] = old[e[1]*nlev+k]
			}
			above, below := old[i*nlev+max(k-1, 0)], old[i*nlev+min(k+1, wet-1)]
			q[i*nlev+k] = (1-h*out)*old[i*nlev+k] + h*(math.Abs(up)-up)*above + h*(math.Abs(dn)+dn)*below +
				wn[0]*nb[0] + wn[1]*nb[1] + wn[2]*nb[2]
		}
		if diffuse && wet >= 2 {
			refDiffuseColumn(s, kv, q, i, wet, dt)
		}
	}
}

// refDiffuseColumn solves the implicit vertical-diffusion system of column
// i of q by the Thomas algorithm, with each eliminated row scaled by the
// reciprocal of its diagonal entry.
func refDiffuseColumn(s *State, kv float64, q []float64, i, wet int, dt float64) {
	d := q[i*s.NLev : i*s.NLev+wet]
	a, b, c := make([]float64, wet), make([]float64, wet), make([]float64, wet)
	for k := 0; k < wet; k++ {
		dz := s.Vert.Thickness(k)
		var up, dn float64
		if k > 0 {
			up = kv * dt / (dz * (s.Vert.ZFull[k] - s.Vert.ZFull[k-1]))
		}
		if k < wet-1 {
			dn = kv * dt / (dz * (s.Vert.ZFull[k+1] - s.Vert.ZFull[k]))
		}
		a[k], b[k], c[k] = -up, 1+up+dn, -dn
	}
	for k := 1; k < wet; k++ {
		m := a[k] / b[k-1]
		b[k] -= m * c[k-1]
		d[k] -= m * d[k-1]
	}
	d[wet-1] *= 1 / b[wet-1]
	for k := wet - 2; k >= 0; k-- {
		d[k] = d[k]*(1/b[k]) - c[k]*(1/b[k])*d[k+1]
	}
}

// refContinuity stores the edge volume fluxes of the total velocity and the
// vertical fluxes continuity implies, level-outer and by the serial loops
// the kernels replaced.
func refContinuity(s *State) {
	g := s.G
	nlev := s.NLev
	for k := 0; k < nlev; k++ {
		for ei, e := range s.Edges {
			c0, c1 := s.EdgeCells[ei][0], s.EdgeCells[ei][1]
			var vol float64
			if s.Vert.ZIface[k] < math.Min(s.Depth[c0], s.Depth[c1]) {
				vol = (s.U[ei*nlev+k] + s.Ub[ei]) * g.EdgeLength[e] * s.Vert.Thickness(k)
			}
			s.MassFluxEdge[ei*nlev+k] = vol
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
	}
}

// refStepTS is T/S through one ocean step's transport and mixing: fluxes
// and continuity, the unsplit update, then the surface sources on the top
// level and the diffusion solve.
func refStepTS(s *State, kv, dt float64, f *Forcing) {
	nlev := s.NLev
	dz0 := s.Vert.Thickness(0)
	refContinuity(s)
	refTransport(s, kv, s.Temp, dt, false)
	refTransport(s, kv, s.Salt, dt, false)
	for i := range s.Cells {
		s.Temp[i*nlev] += dt * f.HeatFlux[i] / (RhoWater * CpWater * dz0)
		wet := refWetLevels(s, i)
		if wet < 2 {
			continue
		}
		s.Salt[i*nlev] += -dt * s.Salt[i*nlev] * f.Freshwater[i] / (RhoWater * dz0)
		refDiffuseColumn(s, kv, s.Temp, i, wet, dt)
		refDiffuseColumn(s, kv, s.Salt, i, wet, dt)
	}
}

// --- retired kernels ----------------------------------------------------
//
// The transport this package ran until the §17 re-baseline: a level-outer
// edge scatter over per-level flux stripes, each flux divided by the cell
// volume; then vertical upwind on the horizontally updated column (the
// split the live sweep does not make); then a tridiagonal built, factorised
// and divided through per column and per field. They stay as the oracle the
// live sweep must remain *near*: TestAdvectTracersNearSplitOracle and
// TestOceanStepNearSplitOracle name the distance.

// retiredSolveTri is the Thomas algorithm (in place, d overwritten).
func retiredSolveTri(a, b, c, d []float64) {
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

// retiredDiffuseColumn solves the implicit vertical-diffusion system of column
// i of q; src, when non-nil, is added to the top right-hand side.
func retiredDiffuseColumn(s *State, kv float64, q []float64, i, wet int, src *float64, dt float64) {
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
	retiredSolveTri(a, b, c, d)
	copy(q[i*nlev:], d)
}

// retiredAdvectColumn is upwind vertical advection of column i of q.
func retiredAdvectColumn(s *State, q []float64, i, wet int, area, dt float64) {
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

// retiredAdvectTracer is the retired per-tracer transport.
func retiredAdvectTracer(s *State, kv float64, q []float64, dt float64) {
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
		retiredAdvectColumn(s, q, i, wet, g.CellArea[c], dt)
		if wet >= 2 {
			retiredDiffuseColumn(s, kv, q, i, wet, nil, dt)
		}
	}
}

// retiredAdvectTS is the retired T/S advection: level-outer flux stripes and
// scatter, then continuity and vertical upwind per column.
func retiredAdvectTS(s *State, dt float64) {
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
		retiredAdvectColumn(s, s.Temp, i, wet, g.CellArea[c], dt)
		retiredAdvectColumn(s, s.Salt, i, wet, g.CellArea[c], dt)
	}
}

// retiredVerticalMixing is the retired T/S mixing: one tridiagonal build and
// solve per column and field.
func retiredVerticalMixing(s *State, kv, dt float64, f *Forcing) {
	nlev := s.NLev
	dz0 := s.Vert.Thickness(0)
	for i := range s.Cells {
		wet := refWetLevels(s, i)
		if wet < 2 {
			s.Temp[i*nlev] += dt * f.HeatFlux[i] / (RhoWater * CpWater * dz0)
			continue
		}
		src := dt * f.HeatFlux[i] / (RhoWater * CpWater * dz0)
		retiredDiffuseColumn(s, kv, s.Temp, i, wet, &src, dt)
		src = -dt * s.Salt[i*nlev] * f.Freshwater[i] / (RhoWater * dz0)
		retiredDiffuseColumn(s, kv, s.Salt, i, wet, &src, dt)
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

// tracerFlows are the flux patterns the sweep is held to its references
// over: the stepped model's own, the same reversed (every upwind choice
// flips), and one with dead edges and signed zeros at single levels.
var tracerFlows = []struct {
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

// tracerCalls change dt and VertDiffT between consecutive calls on one
// Dynamics, so a stale coefficient or factorisation table would show.
var tracerCalls = []struct{ dt, kv float64 }{{600, 1e-4}, {450, 1e-4}, {450, 3e-4}, {600, 3e-4}}

// TestAdvectTracersMatchesSerialReference: the grouped coefficient/stencil
// sweep is byte-equal to the plain per-cell, per-tracer form for every flow
// pattern, wet-depth class, timestep/diffusivity change, group remainder
// and pool width.
func TestAdvectTracersMatchesSerialReference(t *testing.T) {
	defer sched.SetWorkers(0)
	for _, workers := range []int{1, 2, 4} {
		sched.SetWorkers(workers)
		for fi, flow := range tracerFlows {
			s, d, _ := stirredOcean(t, int64(11+fi))
			flow.apply(s)
			for _, n := range []int{1, 2, 3, 4, 5, 19} {
				got := randomTracers(s, n, int64(100+n))
				want := cloneFields(got)
				for ci, c := range tracerCalls {
					d.VertDiffT = c.kv
					d.AdvectTracers(got, c.dt)
					for tr := range want {
						refTransport(s, c.kv, want[tr], c.dt, true)
						requireSameBits(t, fmt.Sprintf("workers=%d flow=%q n=%d call=%d tracer %d",
							workers, flow.name, n, ci, tr), got[tr], want[tr])
					}
				}
				// The single-field entry point is the same sweep.
				d.AdvectTracer(got[0], 600)
				refTransport(s, d.VertDiffT, want[0], 600, true)
				requireSameBits(t, "AdvectTracer", got[0], want[0])
			}
		}
	}
}

// splitDistance bounds how far the unsplit update of q may sit from the
// retired split one after a step of dt. With H and V the horizontal and
// vertical flux-divergence operators, the split form is (1+V)(1+H)q and the
// unsplit one (1+H+V)q: they differ by VHq, and |Hq| ≤ ch·max|q|, |Vx| ≤
// cv·max|x| with ch, cv the worst in- plus outflow per cell volume in each
// direction. The diffusion solve that follows is a contraction in the max
// norm. Reciprocals against divides move last bits only; 1e-13·max|q|
// covers them.
func splitDistance(s *State, d *Dynamics, q []float64, dt float64) float64 {
	nlev := s.NLev
	var ch, cv, qmax float64
	for i := range s.Cells {
		for k := 0; k < s.WetLevels(i); k++ {
			var h float64
			for _, ref := range d.Op.refs[d.Op.refStart[i]:d.Op.refStart[i+1]] {
				h += math.Abs(s.MassFluxEdge[int(ref>>1)*nlev+k])
			}
			v := math.Abs(s.MassFluxVert[i*(nlev+1)+k]) + math.Abs(s.MassFluxVert[i*(nlev+1)+k+1])
			ch = math.Max(ch, dt*h*d.rvol[i*nlev+k])
			cv = math.Max(cv, dt*v*d.rvol[i*nlev+k])
		}
	}
	for _, v := range q {
		qmax = math.Max(qmax, math.Abs(v))
	}
	return (ch*cv + 1e-13) * qmax
}

func requireNear(t *testing.T, what string, got, want []float64, tol float64) {
	t.Helper()
	var worst float64
	for j := range got {
		if diff := math.Abs(got[j] - want[j]); !(diff <= tol) {
			t.Fatalf("%s differs at %d by %v (allowed %v): got %v, want %v", what, j, diff, tol, got[j], want[j])
		} else if diff > worst {
			worst = diff
		}
	}
	if worst == 0 {
		t.Errorf("%s: equal to the split oracle to the last bit, so the oracle is not the retired arithmetic", what)
	}
}

// TestAdvectTracersNearSplitOracle: one sweep from a common state stays
// within splitDistance of the retired split, divided, scattered transport.
func TestAdvectTracersNearSplitOracle(t *testing.T) {
	for fi, flow := range tracerFlows {
		s, d, _ := stirredOcean(t, int64(11+fi))
		flow.apply(s)
		for ci, c := range tracerCalls {
			got := randomTracers(s, 5, int64(200+ci))
			want := cloneFields(got)
			d.VertDiffT = c.kv
			d.AdvectTracers(got, c.dt)
			for tr := range want {
				tol := splitDistance(s, d, want[tr], c.dt)
				retiredAdvectTracer(s, c.kv, want[tr], c.dt)
				requireNear(t, fmt.Sprintf("flow=%q call=%d tracer %d", flow.name, ci, tr), got[tr], want[tr], tol)
			}
		}
	}
}

// oceanStepCopy is a State sharing s's geometry with its own T, S and
// stored fluxes.
func oceanStepCopy(s *State) *State {
	ref := *s
	ref.Temp = append([]float64(nil), s.Temp...)
	ref.Salt = append([]float64(nil), s.Salt...)
	ref.MassFluxEdge = append([]float64(nil), s.MassFluxEdge...)
	ref.MassFluxVert = append([]float64(nil), s.MassFluxVert...)
	return &ref
}

// TestOceanStepMatchesSerialReference: T/S advection (mass-flux pass,
// continuity, unsplit sweep) and the table-driven vertical mixing are
// byte-equal to the plain serial form, stored mass fluxes included.
func TestOceanStepMatchesSerialReference(t *testing.T) {
	defer sched.SetWorkers(0)
	for _, workers := range []int{1, 2, 4} {
		sched.SetWorkers(workers)
		s, d, f := stirredOcean(t, 29)
		ref := oceanStepCopy(s)
		for n, dt := range []float64{600, 450, 600} {
			d.VertDiffT = 1e-4 * float64(n+1)
			d.advectTS(dt)
			d.verticalMixing(dt, f)
			refStepTS(ref, d.VertDiffT, dt, f)
			at := fmt.Sprintf("workers=%d call=%d ", workers, n)
			requireSameBits(t, at+"MassFluxEdge", s.MassFluxEdge, ref.MassFluxEdge)
			requireSameBits(t, at+"MassFluxVert", s.MassFluxVert, ref.MassFluxVert)
			requireSameBits(t, at+"Temp", s.Temp, ref.Temp)
			requireSameBits(t, at+"Salt", s.Salt, ref.Salt)
		}
	}
}

// TestOceanStepNearSplitOracle: from a common state, T and S after one
// advection and mixing stay within splitDistance of the retired kernels
// (horizontal scatter, continuity, vertical upwind on the updated column,
// per-column divided tridiagonal); the stored mass fluxes, which the
// re-baseline did not touch, stay byte-equal.
func TestOceanStepNearSplitOracle(t *testing.T) {
	s, d, f := stirredOcean(t, 29)
	for n, dt := range []float64{600, 450, 600} {
		d.VertDiffT = 1e-4 * float64(n+1)
		ref := oceanStepCopy(s)
		d.advectTS(dt)
		tolT, tolS := splitDistance(s, d, ref.Temp, dt), splitDistance(s, d, ref.Salt, dt)
		d.verticalMixing(dt, f)
		retiredAdvectTS(ref, dt)
		retiredVerticalMixing(ref, d.VertDiffT, dt, f)
		at := fmt.Sprintf("call=%d ", n)
		requireSameBits(t, at+"MassFluxEdge", s.MassFluxEdge, ref.MassFluxEdge)
		requireSameBits(t, at+"MassFluxVert", s.MassFluxVert, ref.MassFluxVert)
		requireNear(t, at+"Temp", s.Temp, ref.Temp, tolT)
		requireNear(t, at+"Salt", s.Salt, ref.Salt, tolS)
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
// relative volume imbalance of a surface cell and of a cell below the
// surface (|net inflow through edges, top and bottom| / volume) and the
// worst outflow rate (outflow / volume, the Courant number per unit dt).
func flowRates(s *State, d *Dynamics) (surface, interior, courant float64) {
	nlev := s.NLev
	for i := range s.Cells {
		for k := 0; k < s.WetLevels(i); k++ {
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
			squeeze := math.Abs(net+dn-up) * d.rvol[i*nlev+k]
			if k == 0 {
				surface = math.Max(surface, squeeze)
			} else {
				interior = math.Max(interior, squeeze)
			}
			courant = math.Max(courant, out*d.rvol[i*nlev+k])
		}
	}
	return surface, interior, courant
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

// checkWeights asserts the CFL statement of monotonicity on the table the
// last sweep built: every weight of every wet cell-level is ≥ 0 (and the
// six sum to one wherever the cell-level is non-divergent, which the
// uniform probe of windDriven checks through the sweep itself).
func checkWeights(t *testing.T, s *State, d *Dynamics) {
	t.Helper()
	for i := range s.Cells {
		for k, ws := range d.coef[i*s.NLev : i*s.NLev+s.WetLevels(i)] {
			for j, w := range ws {
				if !(w >= 0) {
					t.Fatalf("cell %d level %d weight %d is %v", i, k, j, w)
				}
			}
		}
	}
}

// windDriven stirs s with seeded random winds for 50 steps of dt and holds
// the transport to what it must get right under the model's own flow.
// That flow is non-divergent below the surface level — continuity makes
// it so — and the sweep takes horizontal and vertical fluxes from the same
// old state, so there a fresh uniform field stays uniform to round-off in
// every one of the 50 flows (advection alone: diffusion would bring the
// surface's deviation down). Tracer cells keep their volume while the free
// surface moves, so a surface cell with net inflow δV scales its content
// by 1+δV/V whatever the fluxes carry; the carried fields are allowed that
// bound, summed from the stored fluxes, and nothing beyond it.
func windDriven(t *testing.T, s *State, dt float64) {
	d := NewDynamics(s, dt)
	nlev := s.NLev
	rng := rand.New(rand.NewSource(3))
	f := NewForcing(s.NOcean())
	qs := rightnessTracers(s)
	inv0 := inventories(s, qs)
	probe := make([]float64, len(qs[2]))
	var bound, maxCourant, worstInterior float64
	for n := 0; n < 50; n++ {
		for i := range f.WindStress {
			f.WindStress[i] = 0.3 * (2*rng.Float64() - 1)
		}
		if err := d.Step(dt, f); err != nil {
			t.Fatal(err)
		}
		surface, interior, courant := flowRates(s, d)
		bound += dt * surface
		maxCourant = math.Max(maxCourant, dt*courant)
		worstInterior = math.Max(worstInterior, dt*interior)

		for j := range probe {
			probe[j] = 2.5
		}
		d.qs[0] = probe
		d.sweepTracers(d.qs[:1], dt, false)
		for j, v := range probe {
			allowed := 1e-13
			if j%nlev == 0 {
				allowed += dt * surface
			}
			if dev := math.Abs(v/2.5 - 1); dev > allowed {
				t.Fatalf("step %d: uniform field off by %v at cell %d level %d (allowed %v)", n, dev, j/nlev, j%nlev, allowed)
			}
		}

		d.AdvectTracers(qs, dt)
		checkWeights(t, s, d)
	}
	if maxCourant >= 1 || maxCourant == 0 {
		t.Fatalf("fixture Courant number %v", maxCourant)
	}
	if worstInterior > 1e-13 {
		t.Errorf("continuity left a level below the surface divergent by %v per step", worstInterior)
	}
	t.Logf("Courant number %.3g, surface squeeze summed to %.3g", maxCourant, bound)
	checkRightness(t, s, qs, inv0, math.Expm1(bound))
}

// TestTracerTransportRightness checks what transport must get right rather
// than merely reproduce, over 50 steps at CFL < 1: inventories close to
// round-off, a blob gains no new extrema, a uniform field stays uniform
// and no weight of the coefficient table is negative.
//
// The first case is a flow with no divergence anywhere: a seeded random
// stream function per level (fluxes ψ(v1)−ψ(v0) close around every cell),
// at Courant number 0.5. The second is the model's own wind-driven flow
// (windDriven says what holds there); the third is the same at the grid,
// level count and ocean step of the repo benchmark's ocean_bound workload.
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
			_, _, courant := flowRates(s, d)
			for j := range s.MassFluxEdge {
				s.MassFluxEdge[j] *= 0.5 / (courant * dt)
			}
			surface, interior, _ := flowRates(s, d)
			residual += dt * (surface + interior)
			d.AdvectTracers(qs, dt)
			checkWeights(t, s, d)
		}
		if residual > 1e-13 {
			t.Fatalf("fixture flow is divergent: %v", residual)
		}
		checkRightness(t, s, qs, inv0, 1e-12)
	})

	t.Run("wind-driven flow", func(t *testing.T) {
		windDriven(t, testOcean(), 600)
	})

	t.Run("wind-driven flow, ocean_bound sized", func(t *testing.T) {
		g := grid.New(grid.R2B(3))
		s := NewState(g, grid.NewMask(g), vertical.NewOcean(12, 4000, 50))
		s.InitAnalytic()
		windDriven(t, s, 120)
	})
}
