package main

import (
	"flag"
	"fmt"
	"io"

	"icoearth/internal/machine"
	"icoearth/internal/perf"
)

// tables regenerates the paper's tables:
//
//	tables -table 1   # state-of-the-art τ and τ* comparison
//	tables -table 2   # grid configurations and degrees of freedom
//	tables -table 3   # the JUPITER and Alps systems
func tables(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	table := fs.Int("table", 1, "which table to print (1, 2 or 3)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch *table {
	case 1:
		fmt.Fprintln(out, "Table 1: km-scale climate simulations, τ and τ* = (1.25/Δx)³·τ")
		fmt.Fprintf(out, "%-10s %8s  %-12s %-22s %8s %8s\n", "model", "Δx/km", "components", "resource", "τ", "τ*")
		for _, r := range perf.Table1() {
			fmt.Fprintf(out, "%-10s %8.2f  %-12s %-22s %8.1f %8.1f\n",
				r.Model, r.DxKm, r.Components, r.Resource, r.Tau, r.TauStar)
		}
	case 2:
		fmt.Fprintln(out, "Table 2: Earth system model global grid configurations")
		fmt.Fprint(out, perf.Table2Text())
	case 3:
		fmt.Fprintln(out, "Table 3: high-performance computing systems")
		for _, name := range []string{"JUPITER", "Alps"} {
			s := machine.Systems()[name]
			fmt.Fprintf(out, "%-8s: %4d nodes × %d superchips = %5d, TDP %.0f W, %s (%.0f Gbit/s per node)\n",
				s.Name, s.Nodes, s.SuperchipsPerNode, s.Superchips(), s.Chip.TDP,
				s.Net.Name, s.Net.InjBandwidthPerNode*8/1e9)
		}
	default:
		return fmt.Errorf("unknown table %d", *table)
	}
	return nil
}
