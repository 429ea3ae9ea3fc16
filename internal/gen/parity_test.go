package gen_test

import (
	"fmt"
	"math"
	"testing"

	"icoearth/internal/gen"
	"icoearth/internal/grid"
	"icoearth/internal/sched"
	"icoearth/internal/sdfg"
)

// Bit-exactness over every production kernel, three runs compared: the
// SDFG interpreter (the directive baseline and the oracle) and the
// generated package this directory holds at two worker-pool widths must
// produce bit-identical (%x-compared) outputs from identical inputs. This
// is the acceptance proof that lets the generated kernels be the default:
// no term was reordered anywhere between the DSL source and the shipped Go.

// kernelIO names each production kernel's dynamic (non-grid-owned)
// fields and which of them are outputs. Grid-owned coefficient slices
// (orientation, kinetic, tangent, Laplacian weights, lengths, areas) are
// live grid storage and keep their real values.
var kernelIO = map[string]struct {
	inputs  []string
	outputs []string
}{
	"ke_vn":      {inputs: []string{"vn"}, outputs: []string{"ke"}},
	"perot_uc":   {inputs: []string{"vn", "px1", "px2", "px3", "py1", "py2", "py3", "pz1", "pz2", "pz3"}, outputs: []string{"ucx", "ucy", "ucz"}},
	"perot_vt":   {inputs: []string{"ucx", "ucy", "ucz"}, outputs: []string{"vt"}},
	"div_cell":   {inputs: []string{"un"}, outputs: []string{"div"}},
	"grad_edge":  {inputs: []string{"psi"}, outputs: []string{"grad"}},
	"lap_cell":   {inputs: []string{"psi"}, outputs: []string{"lap"}},
	"lap_levels": {inputs: []string{"psi"}, outputs: []string{"lap"}},
}

// bindGenerated dispatches the generated binder for one production
// kernel over the bindings' slices, returning the block body and the
// horizontal extent to run it over.
func bindGenerated(name string, g *grid.Grid, b *sdfg.Bindings, nlev int) (func(lo, hi int), int) {
	f := func(n string) []float64 { return b.Fields[n] }
	t := func(n string) []int { return b.Tables[n] }
	switch name {
	case "ke_vn":
		return gen.BindKeVn(nlev, f("blnc1"), f("blnc2"), f("blnc3"), f("ke"), f("vn"),
			t("iel1"), t("iel2"), t("iel3")), g.NCells
	case "perot_uc":
		return gen.BindPerotUc(nlev,
			f("px1"), f("px2"), f("px3"), f("py1"), f("py2"), f("py3"), f("pz1"), f("pz2"), f("pz3"),
			f("ucx"), f("ucy"), f("ucz"), f("vn"), t("iel1"), t("iel2"), t("iel3")), g.NCells
	case "perot_vt":
		return gen.BindPerotVt(nlev, f("tx"), f("ty"), f("tz"),
			f("ucx"), f("ucy"), f("ucz"), f("vt"), t("icell1"), t("icell2")), g.NEdges
	case "div_cell":
		return gen.BindDivCell(f("area"), f("div"), f("elen"), f("o1"), f("o2"), f("o3"),
			f("un"), t("iel1"), t("iel2"), t("iel3")), g.NCells
	case "grad_edge":
		return gen.BindGradEdge(f("dlen"), f("grad"), f("psi"), t("icell1"), t("icell2")), g.NEdges
	case "lap_cell":
		return gen.BindLapCell(f("area"), f("dlen"), f("elen"), f("lap"), f("o1"), f("o2"), f("o3"),
			f("psi"), t("icell1"), t("icell2"), t("iel1"), t("iel2"), t("iel3")), g.NCells
	case "lap_levels":
		return gen.BindLapLevels(nlev, f("lap"), f("psi"), f("w1"), f("w2"), f("w3"),
			t("icell1"), t("icell2"), t("iel1"), t("iel2"), t("iel3")), g.NCells
	}
	return nil, 0
}

func TestGeneratedThreeWayBitIdentical(t *testing.T) {
	g := grid.New(grid.R2B(2))
	const nlev = 5
	defer sched.SetWorkers(0)

	for _, pk := range sdfg.ProductionKernels() {
		t.Run(pk.Name, func(t *testing.T) {
			io, ok := kernelIO[pk.Name]
			if !ok {
				t.Fatalf("kernel %s has no I/O recipe — update kernelIO", pk.Name)
			}
			sd, b, err := sdfg.BindProduction(pk.Name, g, nlev)
			if err != nil {
				t.Fatal(err)
			}
			// Deterministic non-trivial inputs, different per field.
			for fi, name := range io.inputs {
				data := b.Fields[name]
				for i := range data {
					data[i] = math.Sin(float64(i)*0.7 + float64(fi))
				}
			}
			snapshot := func() string {
				s := ""
				for _, name := range io.outputs {
					s += fmt.Sprintf("%x\n", b.Fields[name])
				}
				return s
			}
			reset := func() {
				for _, name := range io.outputs {
					data := b.Fields[name]
					for i := range data {
						data[i] = math.NaN() // any survivor shows up in %x
					}
				}
			}

			reset()
			if err := sdfg.Interpret(sd, b); err != nil {
				t.Fatal(err)
			}
			want := snapshot()

			body, n := bindGenerated(pk.Name, g, b, nlev)
			if body == nil {
				t.Fatalf("kernel %s has no generated dispatch — update bindGenerated", pk.Name)
			}
			for _, workers := range []int{1, 4} {
				sched.SetWorkers(workers)
				reset()
				sched.Run(n, body)
				if got := snapshot(); got != want {
					t.Errorf("generated kernel diverges from the interpreter at workers=%d", workers)
				}
			}
		})
	}
}
