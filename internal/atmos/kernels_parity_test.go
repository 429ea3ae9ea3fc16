package atmos

import (
	"fmt"
	"math"
	"testing"

	"icoearth/internal/sched"
	"icoearth/internal/sdfg"
	"icoearth/internal/sphere"
)

// TestDycoreInterpreterBitIdentical: the dycore's hot kernels, run
// through the Dycore's own gen.Bind* calls on live storage at workers
// {1,4}, must reproduce bit for bit (%x) what sdfg.Interpret computes from
// the DSL source over the same inputs. internal/gen's parity test proves
// generated == interpreter per kernel; this one proves the binding — a
// swapped Bind* argument or a wrong px1…pz3 split fails here.
func TestDycoreInterpreterBitIdentical(t *testing.T) {
	defer sched.SetWorkers(0)
	g, vert := testGrid()
	s := NewState(g, vert)
	s.InitBaroclinic(288, 30)
	dy := NewDycore(s)
	dy.Step(150)
	dy.Step(150)
	nlev := s.NLev

	// interpret runs one production kernel over the given inputs and
	// returns the bindings holding its outputs.
	interpret := func(name string, inputs map[string][]float64) *sdfg.Bindings {
		t.Helper()
		sd, b, err := sdfg.BindProduction(name, g, nlev)
		if err != nil {
			t.Fatal(err)
		}
		for f, data := range inputs {
			if copy(b.Fields[f], data) != len(b.Fields[f]) {
				t.Fatalf("%s: input %s has the wrong length", name, f)
			}
		}
		if err := sdfg.Interpret(sd, b); err != nil {
			t.Fatal(err)
		}
		return b
	}

	// The Perot weights, derived here from the geometry rather than read
	// back from dy.px1…pz3: u⃗(c) = 1/A_c Σ_e o_ce·l_e·vn(e)·R(x̂_e − x̂_c).
	perot := map[string][]float64{"vn": s.Vn}
	for i := 0; i < 3; i++ {
		px, py, pz := make([]float64, g.NCells), make([]float64, g.NCells), make([]float64, g.NCells)
		for c := range px {
			e := g.CellEdges[c][i]
			w := g.EdgeLength[e] * float64(g.EdgeOrient[c][i]) * sphere.EarthRadius / g.CellArea[c]
			p := g.EdgeCenter[e].Sub(g.CellCenter[c]).Scale(w)
			px[c], py[c], pz[c] = p.X, p.Y, p.Z
		}
		perot[fmt.Sprintf("px%d", i+1)] = px
		perot[fmt.Sprintf("py%d", i+1)] = py
		perot[fmt.Sprintf("pz%d", i+1)] = pz
	}

	ke := interpret("ke_vn", map[string][]float64{"vn": s.Vn})
	uc := interpret("perot_uc", perot)
	vt := interpret("perot_vt", map[string][]float64{
		"ucx": uc.Fields["ucx"], "ucy": uc.Fields["ucy"], "ucz": uc.Fields["ucz"]})

	outputs := []struct {
		name string
		live []float64
		want []float64
	}{
		{"ke_vn ke", dy.ke, ke.Fields["ke"]},
		{"perot_uc ucx", dy.ucx, uc.Fields["ucx"]},
		{"perot_uc ucy", dy.ucy, uc.Fields["ucy"]},
		{"perot_uc ucz", dy.ucz, uc.Fields["ucz"]},
		{"perot_vt vt", dy.vt, vt.Fields["vt"]},
	}
	for _, workers := range []int{1, 4} {
		sched.SetWorkers(workers)
		for _, o := range outputs {
			for i := range o.live {
				o.live[i] = math.NaN() // any survivor shows up in %x
			}
		}
		dy.KineticEnergyKernel()
		dy.TangentialKernel()
		for _, o := range outputs {
			if fmt.Sprintf("%x", o.live) != fmt.Sprintf("%x", o.want) {
				t.Errorf("%s: bound kernel diverges from the interpreter at workers=%d", o.name, workers)
			}
		}
	}
}
