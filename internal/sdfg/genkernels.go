package sdfg

import (
	"fmt"

	"icoearth/internal/grid"
)

// This file is the production kernel library of the codegen backend
// (codegen_blocked.go): the DSL sources whose generated binders
// are compiled into internal/gen and dispatched by the dycore and the
// grid operators, plus the grid-backed bindings cmd/codegen uses to run
// the static verifier before emitting.
//
// Each source is the one place its kernel's arithmetic is written down,
// and the association order written here is the contract: the emitter
// parenthesises every binary operation and reorders nothing, so these
// expressions fix the bits of every trajectory, -sums fingerprint and
// checkpoint. That includes signed zeros: sums that fold from an
// accumulator start with an explicit leading "0.0 +" (0 + (-0) is +0 in
// IEEE-754, so the leading term is not removable).

// KeVnSource is z_ekinh over the prognostic vn with the grid's kinetic
// coefficients — Dycore.parKE:
// ke = Σᵢ wᵢ·vn(eᵢ)·vn(eᵢ), each term associated (wᵢ·vn)·vn.
const KeVnSource = `
KERNEL ke_vn
DO jc = 1, ncells
  DO jk = 1, nlev
    ke(jc,jk) = blnc1(jc)*vn(iel1(jc),jk)*vn(iel1(jc),jk) + blnc2(jc)*vn(iel2(jc),jk)*vn(iel2(jc),jk) + blnc3(jc)*vn(iel3(jc),jk)*vn(iel3(jc),jk)
  END DO
END DO
END KERNEL
`

// PerotUcSource is the cell-centre Perot vector reconstruction —
// Dycore.parUC — one component field per statement. The three statements
// share every index lookup and fuse into one group, so iel1..3 are
// loaded once per cell for all three components.
const PerotUcSource = `
KERNEL perot_uc
DO jc = 1, ncells
  DO jk = 1, nlev
    ucx(jc,jk) = 0.0 + px1(jc)*vn(iel1(jc),jk) + px2(jc)*vn(iel2(jc),jk) + px3(jc)*vn(iel3(jc),jk)
    ucy(jc,jk) = 0.0 + py1(jc)*vn(iel1(jc),jk) + py2(jc)*vn(iel2(jc),jk) + py3(jc)*vn(iel3(jc),jk)
    ucz(jc,jk) = 0.0 + pz1(jc)*vn(iel1(jc),jk) + pz2(jc)*vn(iel2(jc),jk) + pz3(jc)*vn(iel3(jc),jk)
  END DO
END DO
END KERNEL
`

// PerotVtSource projects the edge-mean of the reconstructed cell vectors
// onto the edge tangent — Dycore.parVT:
// vt = (0.5·(uc(c₀)+uc(c₁)))·t̂, dot product folded x,y,z left to right.
const PerotVtSource = `
KERNEL perot_vt
DO je = 1, nedges
  DO jk = 1, nlev
    vt(je,jk) = 0.5*(ucx(icell1(je),jk) + ucx(icell2(je),jk))*tx(je) + 0.5*(ucy(icell1(je),jk) + ucy(icell2(je),jk))*ty(je) + 0.5*(ucz(icell1(je),jk) + ucz(icell2(je),jk))*tz(je)
  END DO
END DO
END KERNEL
`

// DivCellSource is the C-grid divergence gather — Grid.Divergence:
// div = (Σᵢ (oᵢ·un(eᵢ))·l(eᵢ)) / A. The edge length is looked up through
// the hoisted edge index into the grid's shared EdgeLength array.
const DivCellSource = `
KERNEL div_cell
DO jc = 1, ncells
  div(jc) = (0.0 + o1(jc)*un(iel1(jc))*elen(iel1(jc)) + o2(jc)*un(iel2(jc))*elen(iel2(jc)) + o3(jc)*un(iel3(jc))*elen(iel3(jc))) / area(jc)
END DO
END KERNEL
`

// GradEdgeSource is the edge-normal gradient — Grid.Gradient:
// grad = (ψ(c₁) − ψ(c₀)) / d.
const GradEdgeSource = `
KERNEL grad_edge
DO je = 1, nedges
  grad(je) = (psi(icell2(je)) - psi(icell1(je))) / dlen(je)
END DO
END KERNEL
`

// LapCellSource is the scalar Laplacian as div(grad) — Grid.Laplacian.
// The nested subscripts icellX(ielY(jc)) are where the §5.2 index-reuse
// pass earns its keep: 9 distinct lookups serve 21 occurrences, and the
// emitted prologue orders them so nested lookups consume already-hoisted
// slots.
const LapCellSource = `
KERNEL lap_cell
DO jc = 1, ncells
  lap(jc) = (0.0 + o1(jc)*((psi(icell2(iel1(jc))) - psi(icell1(iel1(jc)))) / dlen(iel1(jc)))*elen(iel1(jc)) + o2(jc)*((psi(icell2(iel2(jc))) - psi(icell1(iel2(jc)))) / dlen(iel2(jc)))*elen(iel2(jc)) + o3(jc)*((psi(icell2(iel3(jc))) - psi(icell1(iel3(jc)))) / dlen(iel3(jc)))*elen(iel3(jc))) / area(jc)
END DO
END KERNEL
`

// LapLevelsSource is the level-by-level Laplacian — Grid.LaplacianLevels —
// with the per-(cell,edge) weight w = o·l/(d·A) precomputed into w1..w3
// at grid build (grid.GenTables).
const LapLevelsSource = `
KERNEL lap_levels
DO jc = 1, ncells
  DO jk = 1, nlev
    lap(jc,jk) = 0.0 + w1(jc)*(psi(icell2(iel1(jc)),jk) - psi(icell1(iel1(jc)),jk)) + w2(jc)*(psi(icell2(iel2(jc)),jk) - psi(icell1(iel2(jc)),jk)) + w3(jc)*(psi(icell2(iel3(jc)),jk) - psi(icell1(iel3(jc)),jk))
  END DO
END DO
END KERNEL
`

// GenKernel names one production kernel and its DSL source.
type GenKernel struct {
	Name   string
	Source string
}

// ProductionKernels returns the kernels compiled into internal/gen, in
// emission order (deterministic — the generated file is golden-tested for
// byte stability).
func ProductionKernels() []GenKernel {
	return []GenKernel{
		{"ke_vn", KeVnSource},
		{"perot_uc", PerotUcSource},
		{"perot_vt", PerotVtSource},
		{"div_cell", DivCellSource},
		{"grad_edge", GradEdgeSource},
		{"lap_cell", LapCellSource},
		{"lap_levels", LapLevelsSource},
	}
}

// BindProduction parses a production kernel and binds it to a real grid:
// index tables and geometric coefficient fields come from the grid's
// flattened operator tables (grid.Gen — the same slices the generated
// kernels bind in production), dynamic inputs and outputs are
// zero-allocated for the caller to fill. This is what cmd/codegen runs
// the static verifier (V001–V006) against before emitting, and what the
// parity tests interpret.
func BindProduction(name string, g *grid.Grid, nlev int) (*SDFG, *Bindings, error) {
	var src string
	for _, pk := range ProductionKernels() {
		if pk.Name == name {
			src = pk.Source
			break
		}
	}
	if src == "" {
		return nil, nil, fmt.Errorf("sdfg: unknown production kernel %q", name)
	}
	k, err := Parse(src)
	if err != nil {
		return nil, nil, err
	}
	sd := Build(k)
	t := &g.Gen

	cellTables := func(b *Bindings) {
		b.BindTable("iel1", t.Iel1)
		b.BindTable("iel2", t.Iel2)
		b.BindTable("iel3", t.Iel3)
	}
	edgeTables := func(b *Bindings) {
		b.BindTable("icell1", t.Icell1)
		b.BindTable("icell2", t.Icell2)
	}

	switch name {
	case "ke_vn":
		b := NewBindings(g.NCells, nlev)
		b.BindField("ke", make([]float64, g.NCells*nlev), 2)
		b.BindField("vn", make([]float64, g.NEdges*nlev), 2)
		b.BindField("blnc1", t.Ke1, 1)
		b.BindField("blnc2", t.Ke2, 1)
		b.BindField("blnc3", t.Ke3, 1)
		cellTables(b)
		return sd, b, nil
	case "perot_uc":
		b := NewBindings(g.NCells, nlev)
		for _, f := range []string{"ucx", "ucy", "ucz"} {
			b.BindField(f, make([]float64, g.NCells*nlev), 2)
		}
		b.BindField("vn", make([]float64, g.NEdges*nlev), 2)
		for _, f := range []string{"px1", "px2", "px3", "py1", "py2", "py3", "pz1", "pz2", "pz3"} {
			b.BindField(f, make([]float64, g.NCells), 1)
		}
		cellTables(b)
		return sd, b, nil
	case "perot_vt":
		b := NewBindings(g.NEdges, nlev)
		b.BindField("vt", make([]float64, g.NEdges*nlev), 2)
		for _, f := range []string{"ucx", "ucy", "ucz"} {
			b.BindField(f, make([]float64, g.NCells*nlev), 2)
		}
		b.BindField("tx", t.Tx, 1)
		b.BindField("ty", t.Ty, 1)
		b.BindField("tz", t.Tz, 1)
		edgeTables(b)
		return sd, b, nil
	case "div_cell":
		b := NewBindings(g.NCells, 1)
		b.BindField("div", make([]float64, g.NCells), 1)
		b.BindField("un", make([]float64, g.NEdges), 1)
		b.BindField("o1", t.O1, 1)
		b.BindField("o2", t.O2, 1)
		b.BindField("o3", t.O3, 1)
		b.BindField("elen", g.EdgeLength, 1)
		b.BindField("area", g.CellArea, 1)
		cellTables(b)
		return sd, b, nil
	case "grad_edge":
		b := NewBindings(g.NEdges, 1)
		b.BindField("grad", make([]float64, g.NEdges), 1)
		b.BindField("psi", make([]float64, g.NCells), 1)
		b.BindField("dlen", g.DualLength, 1)
		edgeTables(b)
		return sd, b, nil
	case "lap_cell":
		b := NewBindings(g.NCells, 1)
		b.BindField("lap", make([]float64, g.NCells), 1)
		b.BindField("psi", make([]float64, g.NCells), 1)
		b.BindField("o1", t.O1, 1)
		b.BindField("o2", t.O2, 1)
		b.BindField("o3", t.O3, 1)
		b.BindField("elen", g.EdgeLength, 1)
		b.BindField("dlen", g.DualLength, 1)
		b.BindField("area", g.CellArea, 1)
		cellTables(b)
		edgeTables(b)
		return sd, b, nil
	case "lap_levels":
		b := NewBindings(g.NCells, nlev)
		b.BindField("lap", make([]float64, g.NCells*nlev), 2)
		b.BindField("psi", make([]float64, g.NCells*nlev), 2)
		b.BindField("w1", t.W1, 1)
		b.BindField("w2", t.W2, 1)
		b.BindField("w3", t.W3, 1)
		cellTables(b)
		edgeTables(b)
		return sd, b, nil
	}
	return nil, nil, fmt.Errorf("sdfg: production kernel %q has no binding recipe", name)
}
