// Command figures regenerates the paper's tables and figures, one
// subcommand each:
//
//	figures tables    -table 1|2|3                    Tables 1–3
//	figures scaling   -figure 4left|4right|2|taulimit scaling figures (Fig. 2, Fig. 4, §4)
//	figures calibrate                                 performance-model parameters and residuals
//	figures balance   [-minutes M] [-grid L]          §5.1.1 heterogeneous load balance
//	figures graphs    [-grid L] [-steps N]            §5.1 CUDA-Graph effect on land
//	figures iobench   [-grid L] [-files N] ...        §6.4/§7 checkpoint I/O
//	figures sdfg      [-loc] [-bench] [-bw]           §5.2 separation of concerns
package main

import (
	"io"
	"log"
	"os"
)

const usage = "usage: figures <tables|scaling|calibrate|balance|graphs|iobench|sdfg> [flags]"

var subcommands = map[string]func(args []string, out io.Writer) error{
	"tables":    tables,
	"scaling":   scaling,
	"calibrate": calibrate,
	"balance":   balance,
	"graphs":    graphs,
	"iobench":   iobench,
	"sdfg":      sdfgFigures,
}

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 || subcommands[os.Args[1]] == nil {
		log.Fatal(usage)
	}
	if err := subcommands[os.Args[1]](os.Args[2:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}
