package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"icoearth"
	"icoearth/internal/config"
	"icoearth/internal/machine"
	"icoearth/internal/perf"
)

// balance explores the §5.1.1 heterogeneous load balancing: the CPU-side
// ocean must stay just below the GPU-side atmosphere so the GPUs never
// wait ("we essentially run the ocean component for free"), and the
// shared power budget must leave the memory-bound GPU unthrottled.
func balance(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("balance", flag.ContinueOnError)
	minutes := fs.Float64("minutes", 60, "simulated minutes per configuration")
	gridLev := fs.Int("grid", 0, "grid level override (0 = library default)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	fmt.Fprintln(out, "laptop-scale coupled run: who waits at the coupler?")
	fmt.Fprintf(out, "%-22s %10s %12s %12s\n", "configuration", "τ(sim)", "atm wait/s", "ocean wait/s")
	for _, c := range []struct {
		name string
		opts icoearth.Options
	}{
		{"default (fused BGC)", icoearth.Options{}},
		{"concurrent BGC", icoearth.Options{BGCConcurrent: true}},
		{"no land graphs", icoearth.Options{DisableLandGraphs: true}},
		{"cpu draw 250 W", icoearth.Options{CPUPowerDraw: 250}},
	} {
		c.opts.GridLevel = *gridLev
		sim, err := icoearth.NewSimulation(c.opts)
		if err != nil {
			return err
		}
		if err := sim.Run(time.Duration(*minutes * float64(time.Minute))); err != nil {
			return err
		}
		d := sim.Diagnostics()
		fmt.Fprintf(out, "%-22s %10.1f %12.3f %12.3f\n", c.name, d.Tau, d.AtmWaitSeconds, d.OceanWaitSecs)
	}

	fmt.Fprintln(out, "\npaper-scale projection: ocean-for-free across the strong-scaling range")
	oneKm := config.OneKm()
	jup := machine.JUPITER()
	fmt.Fprintf(out, "%8s %12s %12s %14s\n", "chips", "gpu step/s", "ocean step/s", "atm wait frac")
	for _, n := range []int{2048, 4096, 8192, 16384, 20480} {
		r := perf.Project(jup, oneKm, n)
		fmt.Fprintf(out, "%8d %12.4f %12.4f %14.3f\n", n, r.GPUStep, r.OceanPerAtmStep, r.CouplingWaitFrac)
	}

	fmt.Fprintln(out, "\nshared-TDP power headroom (GH200, 680 W):")
	chip := machine.GH200(680)
	for _, cpuDraw := range []float64{100, 150, 200, 250} {
		head := chip.GPUPowerHeadroom(cpuDraw, chip.GPU.PowerMax)
		fmt.Fprintf(out, "  CPU draw %3.0f W → GPU budget %3.0f W, headroom over memory-bound draw: %+4.0f W\n",
			cpuDraw, chip.TDP-cpuDraw, head)
	}
	return nil
}
