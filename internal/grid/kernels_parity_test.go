package grid_test

import (
	"fmt"
	"math"
	"testing"

	"icoearth/internal/grid"
	"icoearth/internal/sched"
	"icoearth/internal/sdfg"
)

// TestGridOperatorInterpreterBitIdentical: every grid operator backed by
// a generated kernel, called through the Grid method at workers {1,4},
// must reproduce bit for bit (%x) what sdfg.Interpret computes from the
// DSL source over the same input. internal/gen's parity test
// proves generated == interpreter per kernel; this one proves the
// operator's own gen.Bind* call — which slice and which Gen table feeds
// which parameter.
func TestGridOperatorInterpreterBitIdentical(t *testing.T) {
	g := grid.New(grid.R2B(2))
	defer sched.SetWorkers(0)

	const nlev = 5
	ops := []struct {
		name            string
		kernel, in, out string
		run             func(in, out []float64)
	}{
		{"divergence", "div_cell", "un", "div", g.Divergence},
		{"gradient", "grad_edge", "psi", "grad", g.Gradient},
		{"laplacian", "lap_cell", "psi", "lap", g.Laplacian},
		{"laplacian_levels", "lap_levels", "psi", "lap",
			func(in, out []float64) { g.LaplacianLevels(in, out, nlev) }},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			sd, b, err := sdfg.BindProduction(op.kernel, g, nlev)
			if err != nil {
				t.Fatal(err)
			}
			in := b.Fields[op.in]
			for i := range in {
				in[i] = math.Sin(float64(i)*0.7 + 1)
			}
			if err := sdfg.Interpret(sd, b); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("%x", b.Fields[op.out])

			out := make([]float64, len(b.Fields[op.out]))
			for _, workers := range []int{1, 4} {
				for i := range out {
					out[i] = math.NaN() // any survivor shows up in %x
				}
				sched.SetWorkers(workers)
				op.run(in, out)
				if got := fmt.Sprintf("%x", out); got != want {
					t.Errorf("operator diverges from the interpreter at workers=%d", workers)
				}
			}
		})
	}
}
