package grid

import (
	"math"
	"testing"

	"icoearth/internal/sphere"
)

// The analytic field of the convergence test: ψ = xy + yz + ½(3z²−1) on
// the unit sphere, a degree-2 spherical harmonic with no symmetry of the
// icosahedron, so no error cancels by symmetry. Its 3-D gradient gives the
// surface gradient (∇ψ − (p·∇ψ)p)/R; its Laplace–Beltrami image is
// −l(l+1)ψ/R² with l = 2.
func harmonic(p sphere.Vec3) float64 { return p.X*p.Y + p.Y*p.Z + 0.5*(3*p.Z*p.Z-1) }

func harmonicGradient(p sphere.Vec3) sphere.Vec3 {
	g := sphere.Vec3{X: p.Y, Y: p.X + p.Z, Z: p.Y + 3*p.Z}
	return g.Sub(p.Scale(g.Dot(p))).Scale(1 / sphere.EarthRadius)
}

// relErrors returns the relative L2 (area- or length-weighted RMS) and
// maximum errors of got against want.
func relErrors(got, want, weight []float64) (l2, linf float64) {
	var num, den, maxErr, maxWant float64
	for i := range want {
		e := got[i] - want[i]
		num += e * e * weight[i]
		den += want[i] * want[i] * weight[i]
		maxErr = math.Max(maxErr, math.Abs(e))
		maxWant = math.Max(maxWant, math.Abs(want[i]))
	}
	return math.Sqrt(num / den), maxErr / maxWant
}

// fittedOrder is the least-squares slope of log(err) against log(dx).
func fittedOrder(dx, err []float64) float64 {
	var sx, sy, sxx, sxy float64
	n := float64(len(dx))
	for i := range dx {
		x, y := math.Log(dx[i]), math.Log(err[i])
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// TestOperatorConvergenceOrder fits the order at which the discrete
// gradient, divergence and Laplacian approach their analytic values for a
// degree-2 spherical harmonic over R2B1…R2B4 (three halvings of the mesh
// width), in the weighted L2 norm, and asserts the fitted slope — a
// statement about the operators being *right*, which bit-identity across
// configurations cannot make. What the fit finds on this unoptimised
// bisection grid (the values are recorded in EXPERIMENTS.md, "PR 24"):
//
//   - gradient, order 1.5 (1.0 in the maximum norm): a centred difference
//     between circumcentres is second-order at the midpoint of the dual
//     edge, which sits O(Δx·distortion) from the primal edge midpoint where
//     the normal component lives;
//   - divergence of the exact edge-normal field, order 1.0 in both norms;
//   - Laplacian, order 0.6 in L2 and none in the maximum norm: on
//     non-uniform triangles div∘grad is inconsistent pointwise — its
//     truncation error alternates between upward- and downward-pointing
//     triangles without shrinking — and converges only in the mean, which
//     is how the model uses it (diffusion, damping) and how
//     TestLaplacianEigenfunctions reads it (a Rayleigh quotient).
//
// The bounds sit a little under the fitted values: an operator that lost an
// order (a wrong length, a missed orientation) falls below them.
func TestOperatorConvergenceOrder(t *testing.T) {
	names := []string{"gradient", "divergence", "laplacian"}
	var dx []float64
	l2 := make([][]float64, len(names))
	linf := make([][]float64, len(names))
	for k := 1; k <= 4; k++ {
		g := New(R2B(k))
		dx = append(dx, g.Res.NominalDx())
		psi, lapWant := make([]float64, g.NCells), make([]float64, g.NCells)
		for c, p := range g.CellCenter {
			psi[c] = harmonic(p)
			lapWant[c] = -6 * psi[c] / (sphere.EarthRadius * sphere.EarthRadius)
		}
		gradWant := make([]float64, g.NEdges)
		for e, p := range g.EdgeCenter {
			gradWant[e] = harmonicGradient(p).Dot(g.EdgeNormal[e])
		}
		grad, div, lap := make([]float64, g.NEdges), make([]float64, g.NCells), make([]float64, g.NCells)
		g.Gradient(psi, grad)
		g.Divergence(gradWant, div)
		g.Laplacian(psi, lap)
		for i, pair := range [][3][]float64{
			{grad, gradWant, g.EdgeLength}, {div, lapWant, g.CellArea}, {lap, lapWant, g.CellArea},
		} {
			a, b := relErrors(pair[0], pair[1], pair[2])
			l2[i], linf[i] = append(l2[i], a), append(linf[i], b)
		}
	}
	minL2 := []float64{1.4, 0.9, 0.5}
	for i, name := range names {
		order, orderInf := fittedOrder(dx, l2[i]), fittedOrder(dx, linf[i])
		t.Logf("%-10s L2 error R2B1…R2B4 %.3e … %.3e, fitted order %.2f (max norm %.3e … %.3e, order %.2f)",
			name, l2[i][0], l2[i][3], order, linf[i][0], linf[i][3], orderInf)
		if order < minL2[i] {
			t.Errorf("%s converges at order %.2f in L2, want ≥ %.1f", name, order, minL2[i])
		}
	}
}
