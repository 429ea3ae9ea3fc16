package ocean

import (
	"math"
	"math/rand"
	"testing"

	"icoearth/internal/grid"
	"icoearth/internal/par"
	"icoearth/internal/vertical"
)

// denseSolve solves a·x = b by Gaussian elimination with partial pivoting
// (a is row-major n×n and is destroyed).
func denseSolve(a [][]float64, b []float64) []float64 {
	n := len(b)
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		x[col], x[piv] = x[piv], x[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		for c := r + 1; c < n; c++ {
			x[r] -= a[r][c] * x[c]
		}
		x[r] /= a[r][r]
	}
	return x
}

// TestSolversMatchDenseElimination: on an R2B1 basin, small enough to
// assemble the barotropic operator as a dense matrix (column j is the
// operator applied to the j-th unit vector) and eliminate it directly, the
// pooled CG and the rank-distributed CG at two ranks land within
// 1e-8·‖η‖ of the direct solution of a seeded right-hand side. The other
// solver tests compare CG with CG; this one has no iteration on the
// reference side.
func TestSolversMatchDenseElimination(t *testing.T) {
	g := grid.New(grid.R2B(1))
	s := NewState(g, grid.NewMask(g), vertical.NewOcean(8, 4000, 50))
	const dt = 600
	op := NewBarotropicOp(s, dt)
	n := s.NOcean()
	if n < 20 || len(s.Edges) == 0 {
		t.Fatalf("basin has %d cells and %d wet edges", n, len(s.Edges))
	}
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	unit, col := make([]float64, n), make([]float64, n)
	for j := 0; j < n; j++ {
		unit[j] = 1
		op.Apply(unit, col)
		unit[j] = 0
		for i := range col {
			a[i][j] = col[i]
		}
	}
	rng := rand.New(rand.NewSource(41))
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = (2*rng.Float64() - 1) * g.CellArea[s.Cells[i]]
	}
	direct := denseSolve(a, rhs)
	var norm float64
	for _, v := range direct {
		norm += v * v
	}
	norm = math.Sqrt(norm)

	check := func(name string, eta []float64) {
		t.Helper()
		var diff float64
		for i := range eta {
			diff += (eta[i] - direct[i]) * (eta[i] - direct[i])
		}
		if diff = math.Sqrt(diff); !(diff <= 1e-8*norm) {
			t.Errorf("%s: ‖η − η_direct‖ = %.3e, allowed 1e-8·‖η‖ = %.3e", name, diff, 1e-8*norm)
		}
		t.Logf("%s: ‖η − η_direct‖/‖η‖ = %.2e over %d cells", name, diff/norm, n)
	}

	eta := make([]float64, n)
	if _, err := op.Solve(rhs, eta, 1e-12, 10*n); err != nil {
		t.Fatal(err)
	}
	check("pooled CG", eta)

	const nranks = 2
	d, err := grid.Decompose(g, nranks)
	if err != nil {
		t.Fatal(err)
	}
	results := make([][]float64, nranks)
	par.NewWorld(nranks).Run(func(c *par.Comm) {
		db, err := NewDistBarotropic(s, dt, d, c)
		if err != nil {
			t.Error(err)
			return
		}
		eta := make([]float64, n)
		if _, err := db.Solve(rhs, eta, 1e-12, 10*n); err != nil {
			t.Error(err)
			return
		}
		results[c.Rank] = eta
	})
	for r, eta := range results {
		if eta == nil {
			t.Fatalf("rank %d produced no result", r)
		}
		check("DistCG rank "+string(rune('0'+r)), eta)
	}
}
