package main

import (
	"flag"
	"fmt"
	"io"
	"math"

	"icoearth/internal/exec"
	"icoearth/internal/grid"
	"icoearth/internal/land"
	"icoearth/internal/machine"
)

// graphs measures the CUDA-Graph effect on the land/vegetation component
// (§5.1): the many small per-PFT kernels are launch-latency bound until
// captured into a graph, giving the paper's 8–10× speedup.
func graphs(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("graphs", flag.ContinueOnError)
	level := fs.Int("grid", 3, "icosahedral grid level")
	steps := fs.Int("steps", 10, "land steps to time")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g := grid.New(grid.R2B(*level))
	mask := grid.NewMask(g)

	run := func(useGraph bool) (*land.Model, *exec.Device) {
		dev := exec.NewDevice(machine.HopperGPU())
		m := land.NewModel(g, mask, dev)
		m.UseGraph = useGraph
		f := land.NewForcing(m.State.NLand())
		for i, c := range m.State.Cells {
			lat, _ := g.CellCenter[c].LatLon()
			f.SWDown[i] = 340 * math.Cos(lat) * math.Cos(lat)
			f.TAir[i] = 288 - 30*math.Sin(lat)*math.Sin(lat)
			f.Precip[i] = 3e-5
		}
		for n := 0; n < *steps; n++ {
			m.Step(1800, f)
		}
		return m, dev
	}

	m, eager := run(false)
	_, graph := run(true)
	fmt.Fprintf(out, "land/vegetation on R2B%d: %d land cells, %d kernels per step\n",
		*level, len(mask.LandCells), m.KernelsPerStep())
	fmt.Fprintf(out, "eager launches:  %6d kernels, %8.3f ms simulated\n", eager.Launches(), eager.SimTime()*1e3)
	fmt.Fprintf(out, "graph replay:    %6d records, %8.3f ms simulated\n", graph.Launches(), graph.SimTime()*1e3)
	fmt.Fprintf(out, "speedup: %.1f× (paper: 8–10× depending on grid spacing)\n",
		eager.SimTime()/graph.SimTime())
	return nil
}
