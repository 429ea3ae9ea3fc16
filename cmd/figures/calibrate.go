package main

import (
	"flag"
	"fmt"
	"io"

	"icoearth/internal/config"
	"icoearth/internal/machine"
	"icoearth/internal/perf"
)

// calibrate re-derives the performance-model parameters from the paper's
// anchor points and prints them with the residuals against every
// published number the model should reproduce.
func calibrate(args []string, out io.Writer) error {
	if err := flag.NewFlagSet("calibrate", flag.ContinueOnError).Parse(args); err != nil {
		return err
	}
	p := perf.Calibrate()
	fmt.Fprintln(out, "calibrated performance model: t_step = T0 + c·wc + P/c + ν·n")
	fmt.Fprintf(out, "  T0 = %.6f s      (per-step fixed cost)\n", p.T0)
	fmt.Fprintf(out, "  wc = %.4g s/cell  (bandwidth work, 90-level column)\n", p.Wc)
	fmt.Fprintf(out, "  P  = %.4g s·cells (sub-occupancy penalty)\n", p.P)
	for _, sys := range []string{"JUPITER", "Alps"} {
		fmt.Fprintf(out, "  ν(%s) = %.4g s/rank\n", sys, p.Noise[sys])
	}
	fmt.Fprintf(out, "  ocean: %.3g bytes/cell/step on Grace, %d CG iterations\n",
		p.OceanBytesPerCell, p.CGIterations)

	fmt.Fprintln(out, "\nvalidation against the paper:")
	oneKm := config.OneKm()
	check := func(name string, got, want float64) {
		fmt.Fprintf(out, "  %-38s %8.1f  (paper %6.1f, %+.1f%%)\n", name, got, want, 100*(got-want)/want)
	}
	check("τ JUPITER 1.25km @2048", perf.Project(machine.JUPITER(), oneKm, 2048).Tau, 32.7)
	check("τ JUPITER 1.25km @4096", perf.Project(machine.JUPITER(), oneKm, 4096).Tau, 59.5)
	check("τ JUPITER 1.25km @20480", perf.Project(machine.JUPITER(), oneKm, 20480).Tau, 145.7)
	check("τ Alps 1.25km @8192", perf.Project(machine.Alps(), oneKm, 8192).Tau, 91.8)
	tenKm := config.TenKm()
	tenKm.Components[0].Dt = 10
	check("τ 10km Δt=10s @384", perf.Project(machine.JUPITER(), tenKm, 384).Tau, 167)
	check("τ projected full JUPITER @24576", perf.Project(machine.JUPITER(), oneKm, 24576).Tau, 150)
	check("power ratio CPU/GPU (Fig 2)", perf.Figure2Energy(160).PowerRatio, 4.4)
	lim := perf.TauLimit([]float64{40})[0]
	check("τ limit @40 km", lim.Tau, 3192)
	fmt.Fprintf(out, "  %-38s %8d  (paper: 2.5 nodes = 10 chips)\n", "chips at the 40 km limit", lim.Superchips)
	return nil
}
