package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"time"

	"icoearth/internal/config"
	"icoearth/internal/gen"
	"icoearth/internal/grid"
	"icoearth/internal/machine"
	"icoearth/internal/sdfg"
)

// sdfgFigures regenerates the §5.2 separation-of-concerns figures on the
// production kernels:
//
//	sdfg -loc     # lines-of-code accounting (directive-laden vs clean)
//	sdfg -bench   # interpreter ("directives") vs the generated Go that ships
//	sdfg -bw      # sustained-bandwidth projection per configuration
func sdfgFigures(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sdfg", flag.ContinueOnError)
	var (
		loc   = fs.Bool("loc", false, "lines-of-code accounting")
		bench = fs.Bool("bench", false, "interpreter vs generated-kernel timing")
		bw    = fs.Bool("bw", false, "sustained bandwidth projection")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*loc && !*bench && !*bw {
		*loc, *bench, *bw = true, true, true
	}

	if *loc {
		fmt.Fprintln(out, "§5.2 lines-of-code accounting (separation of concerns)")
		r := sdfg.Report(sdfg.EkinhDirectiveSource)
		fmt.Fprintf(out, "  z_ekinh listing:  %4d directive-laden lines → %4d clean lines (%.0f%%)\n",
			r.DirectiveLines, r.CleanLines, 100*r.Ratio())
		p := sdfg.PaperReport()
		fmt.Fprintf(out, "  ICON dycore (paper): %4d lines → %4d lines (%.0f%%)\n",
			p.DirectiveLines, p.CleanLines, 100*p.Ratio())
	}

	if *bench {
		fmt.Fprintln(out, "\n§5.2 kernel performance: directive baseline vs the generated kernels that ship")
		if err := benchGenerated(grid.New(grid.R2B(4)), out); err != nil {
			return err
		}
	}

	if *bw {
		fmt.Fprintln(out, "\n§5.2 sustained DRAM bandwidth of the dycore (model projection)")
		h := machine.HopperGPU()
		oneKm := config.OneKm()
		for _, chips := range []int{128, 2048, 8192, 20480} {
			cells := oneKm.AtmosCells() / float64(chips)
			// Per-kernel working set: cells × 90 levels × ~4 arrays.
			bytes := cells * 90 * 8 * 4
			eff := h.EffBandwidth(bytes)
			agg := eff * float64(chips)
			fmt.Fprintf(out, "  %6d chips: %9.0f cells/GPU, %5.1f%% of peak, aggregate %7.2f PiB/s\n",
				chips, cells, 100*eff/h.MemBW, agg/(1<<50))
		}
		fmt.Fprintln(out, "  (paper: >15 PiB/s aggregate ≈50% of peak at the hero run's work per chip)")
	}
	return nil
}

// benchGenerated times three production kernels twice over the same
// storage: sdfg.Interpret over sdfg.BindProduction, and the internal/gen
// binder bound as the dycore and the grid operators bind it, run as one
// block on one thread like the interpreter. The lookup counts are static:
// occurrences in the source × levels against the emitted code's hoists.
func benchGenerated(g *grid.Grid, out io.Writer) error {
	const nlev = 30
	t := &g.Gen
	for _, k := range []struct {
		name  string
		input string
		n     int
		bind  func(f map[string][]float64) func(lo, hi int)
	}{
		{"ke_vn", "vn", g.NCells, func(f map[string][]float64) func(lo, hi int) {
			return gen.BindKeVn(nlev, t.Ke1, t.Ke2, t.Ke3, f["ke"], f["vn"], t.Iel1, t.Iel2, t.Iel3)
		}},
		{"div_cell", "un", g.NCells, func(f map[string][]float64) func(lo, hi int) {
			return gen.BindDivCell(g.CellArea, f["div"], g.EdgeLength, t.O1, t.O2, t.O3, f["un"], t.Iel1, t.Iel2, t.Iel3)
		}},
		{"grad_edge", "psi", g.NEdges, func(f map[string][]float64) func(lo, hi int) {
			return gen.BindGradEdge(g.DualLength, f["grad"], f["psi"], t.Icell1, t.Icell2)
		}},
	} {
		sd, b, err := sdfg.BindProduction(k.name, g, nlev)
		if err != nil {
			return err
		}
		in := b.Fields[k.input]
		for i := range in {
			in[i] = math.Sin(float64(i) * 1e-3)
		}
		bk, err := sdfg.CodegenGoBlocked(sd, b)
		if err != nil {
			return err
		}
		_, occ := sd.IndexLookups(b.IsTable)

		const interpReps, genReps = 3, 60
		t0 := time.Now()
		for i := 0; i < interpReps; i++ {
			if err := sdfg.Interpret(sd, b); err != nil {
				return err
			}
		}
		ti := time.Since(t0).Seconds() / interpReps
		body := k.bind(b.Fields)
		t0 = time.Now()
		for i := 0; i < genReps; i++ {
			body(0, k.n)
		}
		tg := time.Since(t0).Seconds() / genReps
		fmt.Fprintf(out, "  %-10s interpreter %7.1f ms | generated %7.3f ms | speedup %.0f× | lookups %d → %d per point\n",
			k.name, ti*1e3, tg*1e3, ti/tg, occ*b.NInner, bk.Hoists)
	}
	return nil
}
