package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"icoearth"
	"icoearth/internal/config"
	"icoearth/internal/restart"
)

// iobench exercises the checkpoint/restart machinery (§6.4, §7): it
// writes and reads a real multi-file restart of a laptop-scale coupled
// state (measuring actual disk rates) and projects the paper-scale rates
// through the parallel-filesystem model (ocean restart: 198.19 GiB/s
// write, 615.61 GiB/s staggered read with ≤2579 I/O processes).
func iobench(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("iobench", flag.ContinueOnError)
	var (
		gridLev = fs.Int("grid", 3, "grid level for the real I/O test")
		nfiles  = fs.Int("files", 8, "restart files (writer ranks)")
		minutes = fs.Float64("minutes", 10, "simulated minutes before the checkpoint")
		dir     = fs.String("dir", "", "directory (default: temp)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	d := *dir
	if d == "" {
		var err error
		d, err = os.MkdirTemp("", "icoearth-restart")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
	}

	sim, err := icoearth.NewSimulation(icoearth.Options{GridLevel: *gridLev})
	if err != nil {
		return err
	}
	if err := sim.Run(time.Duration(*minutes * float64(time.Minute))); err != nil {
		return err
	}

	t0 := time.Now()
	n, err := sim.Checkpoint(d, *nfiles)
	if err != nil {
		return err
	}
	wt := time.Since(t0).Seconds()
	fmt.Fprintf(out, "real multi-file write: %.1f MiB in %d files, %.3f s (%.0f MiB/s)\n",
		float64(n)/(1<<20), *nfiles, wt, float64(n)/(1<<20)/wt)

	t0 = time.Now()
	if err := sim.Restore(d); err != nil {
		return err
	}
	rt := time.Since(t0).Seconds()
	fmt.Fprintf(out, "real staggered read:   %.1f MiB, %.3f s (%.0f MiB/s)\n",
		float64(n)/(1<<20), rt, float64(n)/(1<<20)/rt)

	fmt.Fprintln(out, "\npaper-scale projection (1.25 km restart on the JUPITER filesystem):")
	pfs := restart.JupiterFS()
	atm, oc := config.OneKm().RestartBytes()
	const gib = 1 << 30
	for _, row := range []struct {
		name  string
		bytes float64
	}{{"atmosphere", atm}, {"ocean", oc}} {
		fmt.Fprintf(out, "  %-10s %8.2f GiB: write %6.1f s @ %6.2f GiB/s | staggered read %6.1f s @ %6.2f GiB/s\n",
			row.name, row.bytes/gib,
			pfs.WriteTime(row.bytes, 2579), pfs.WriteRate(2579)/gib,
			pfs.ReadTime(row.bytes, 2579, true), pfs.ReadRate(2579, true)/gib)
	}
	fmt.Fprintf(out, "  unstaggered read penalty: %.1f× slower\n",
		pfs.ReadRate(2579, true)/pfs.ReadRate(2579, false))
	return nil
}
