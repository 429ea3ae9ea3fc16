package main

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"icoearth/internal/grid"
)

// TestSubcommands drives every subcommand through the func(args, out)
// entry main dispatches to, at its smallest size, and asserts the stdout
// shape — including the paper's anchor values the model must reproduce.
func TestSubcommands(t *testing.T) {
	cases := []struct {
		id, cmd string
		args    []string
		wants   []string // substrings of stdout; nil: the subcommand must fail
		check   func(t *testing.T, out string)
	}{
		{"tables-1", "tables", []string{"-table", "1"}, []string{"Table 1:", "τ*"}, nil},
		{"tables-2", "tables", []string{"-table", "2"}, []string{"Table 2:"}, nil},
		{"tables-3", "tables", []string{"-table", "3"}, []string{"Table 3:", "JUPITER", "Alps"}, nil},
		{"tables-unknown", "tables", []string{"-table", "9"}, nil, nil},
		// The hero anchor τ=145.7 appears in the 4left sweep.
		{"scaling-4left", "scaling", []string{"-figure", "4left"}, []string{"Figure 4 (left)", "JUPITER", "weak-scaling efficiency", "145.7"}, nil},
		{"scaling-4right", "scaling", []string{"-figure", "4right"}, []string{"Figure 4 (right)", "τ="}, nil},
		{"scaling-2", "scaling", []string{"-figure", "2"}, []string{"Levante CPU vs GPU", "CPU/GPU power ratio"}, nil},
		{"scaling-taulimit", "scaling", []string{"-figure", "taulimit"}, []string{"practical τ limit", "Δx=", "superchips minimum"}, nil},
		{"scaling-unknown", "scaling", []string{"-figure", "nope"}, nil, nil},
		{"calibrate", "calibrate", nil, []string{"calibrated performance model", "τ JUPITER 1.25km @20480", "chips at the 40 km limit"}, nil},
		// All four laptop configurations for a couple of simulated minutes
		// on the smallest grid, then every report block.
		{"balance", "balance", []string{"-minutes", "2", "-grid", "1"}, []string{
			"who waits at the coupler?", "default (fused BGC)", "concurrent BGC", "no land graphs", "cpu draw 250 W",
			"ocean-for-free across the strong-scaling range", "20480", "shared-TDP power headroom"}, nil},
		// The header's kernels per step times the steps is the eager launch
		// count the next line reports (the header used to print one kernel
		// short of what land.Model launches).
		{"graphs", "graphs", []string{"-grid", "1", "-steps", "2"}, []string{"speedup:"}, func(t *testing.T, out string) {
			perStep := number(t, out, `(\d+) kernels per step`)
			if eager := number(t, out, `eager launches:\s+(\d+) kernels`); perStep*2 != eager {
				t.Errorf("header says %d kernels per step, 2 steps launched %d", perStep, eager)
			}
		}},
		// The real write→read round trip on the smallest grid with a short
		// spin-up, then the projection block.
		{"iobench", "iobench", []string{"-grid", "1", "-files", "2", "-minutes", "1", "-dir", t.TempDir()}, []string{
			"real multi-file write:", "real staggered read:", "paper-scale projection", "atmosphere", "ocean",
			"unstaggered read penalty:"}, nil},
		{"sdfg-loc-bw", "sdfg", []string{"-loc", "-bw"}, []string{
			"20 directive-laden lines →    8 clean lines", "2728 lines → 1400 lines", "20480 chips"}, nil},
	}
	for _, c := range cases {
		t.Run(c.id, func(t *testing.T) {
			var out strings.Builder
			err := subcommands[c.cmd](c.args, &out)
			if c.wants == nil {
				if err == nil {
					t.Fatalf("%s %v accepted", c.cmd, c.args)
				}
				return
			}
			if err != nil {
				t.Fatalf("%v\noutput:\n%s", err, out.String())
			}
			for _, want := range c.wants {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output missing %q:\n%s", want, out.String())
				}
			}
			if c.check != nil {
				c.check(t, out.String())
			}
		})
	}
}

// number returns the first submatch of pattern in out as an int.
func number(t *testing.T, out, pattern string) int {
	t.Helper()
	m := regexp.MustCompile(pattern).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("output lacks %q:\n%s", pattern, out)
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// TestSdfgBenchRows: the §5.2 timing figure on the smallest grid (the
// subcommand's own is fixed at R2B4) — one row per production kernel
// timed, with the static lookup counts of the source and of the emitted
// code.
func TestSdfgBenchRows(t *testing.T) {
	var out strings.Builder
	if err := benchGenerated(grid.New(grid.R2B(1)), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`ke_vn +interpreter +[\d.]+ ms \| generated +[\d.]+ ms \| speedup \d+× \| lookups 180 → 3 per point`,
		`div_cell +interpreter +[\d.]+ ms \| generated +[\d.]+ ms \| speedup \d+× \| lookups 6 → 3 per point`,
		`grad_edge +interpreter +[\d.]+ ms \| generated +[\d.]+ ms \| speedup \d+× \| lookups 2 → 2 per point`,
	} {
		if !regexp.MustCompile(want).MatchString(out.String()) {
			t.Errorf("no row matching %q:\n%s", want, out.String())
		}
	}
}
