package main

import (
	"flag"
	"fmt"
	"io"

	"icoearth/internal/perf"
)

// scaling regenerates the paper's scaling figures from the calibrated
// performance model:
//
//	scaling -figure 4left    # 1.25 km strong scaling (JUPITER, Alps, weak-scaling ref)
//	scaling -figure 4right   # 10 km strong scaling (JEDI, Alps)
//	scaling -figure 2        # Levante CPU vs GPU + energy comparison
//	scaling -figure taulimit # §4 practical τ limit vs resolution
func scaling(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scaling", flag.ContinueOnError)
	figure := fs.String("figure", "4left", "which figure to regenerate: 4left, 4right, 2, taulimit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch *figure {
	case "4left":
		fmt.Fprintln(out, "Figure 4 (left): strong scaling of the full Earth system at 1.25 km")
		fmt.Fprint(out, perf.FormatSeries(perf.Figure4Left()))
		fmt.Fprintf(out, "weak-scaling efficiency over 64× (10 km@Δt=10s → 1.25 km): %.0f%%\n",
			100*perf.WeakScalingEfficiency(384))
	case "4right":
		fmt.Fprintln(out, "Figure 4 (right): strong scaling of the 10 km Earth system")
		fmt.Fprint(out, perf.FormatSeries(perf.Figure4Right()))
	case "2":
		fmt.Fprintln(out, "Figure 2 (left): 10 km coupled strong scaling, Levante CPU vs GPU")
		fmt.Fprint(out, perf.FormatSeries(perf.Figure2Left()))
		e := perf.Figure2Energy(160)
		fmt.Fprintln(out, "\nFigure 2 (right): power at matched time-to-solution")
		fmt.Fprintf(out, "  GPU: %4d A100s      τ=%6.1f  %6.3f MW\n", e.GPUChips, e.GPUTau, e.GPUPowerMW)
		fmt.Fprintf(out, "  CPU: %4d nodes      τ=%6.1f  %6.3f MW\n", e.CPUNodes, e.CPUTau, e.CPUPowerMW)
		fmt.Fprintf(out, "  CPU/GPU power ratio: %.2f (paper: 4.4)\n", e.PowerRatio)
	case "taulimit":
		fmt.Fprintln(out, "§4: practical τ limit per resolution (GPU starvation below ~30k cells/chip)")
		for _, p := range perf.TauLimit([]float64{5, 10, 20, 40, 80}) {
			fmt.Fprintf(out, "  Δx=%5.1f km: %5d superchips minimum, τ ≤ %7.0f\n", p.DxKm, p.Superchips, p.Tau)
		}
		fmt.Fprintln(out, "  (paper: τ≈3192 at Δx=40 km on 2.5 GH200 nodes = 10 superchips)")
	default:
		return fmt.Errorf("unknown figure %q", *figure)
	}
	return nil
}
