package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagsHonouredOrRejected: no output flag is silently ignored. For
// every output flag against every run mode, either the file or directory
// it names exists after run(), or run() refused the combination with an
// error naming the flag before it built a simulation (nothing printed).
func TestFlagsHonouredOrRejected(t *testing.T) {
	modes := map[string][]string{
		"plain":    nil,
		"ckpt-dir": {"-ckpt-dir", "STORE"},
		"chaos":    {"-chaos", "seed=1"},
		"ranks-2":  {"-ranks", "2"},
	}
	// The one rejection: a RunReport needs a supervisor.
	rejected := map[string]bool{"-report/plain": true, "-report/ranks-2": true}
	for _, flag := range []string{"-report", "-checkpoint", "-trace", "-sums"} {
		for mode, extra := range modes {
			t.Run(flag+"/"+mode, func(t *testing.T) {
				dir := t.TempDir()
				target := filepath.Join(dir, "target")
				args := []string{"-hours", "0.2", flag, target}
				for _, a := range extra {
					args = append(args, strings.ReplaceAll(a, "STORE", filepath.Join(dir, "store")))
				}
				out, err := runTiny(t, args...)
				if rejected[flag+"/"+mode] {
					if err == nil || !strings.Contains(err.Error(), flag) {
						t.Fatalf("want an error naming %s, got %v", flag, err)
					}
					if out != "" {
						t.Errorf("rejected after building a simulation:\n%s", out)
					}
					return
				}
				if err != nil {
					t.Fatalf("%v\n%s", err, out)
				}
				if _, err := os.Stat(target); err != nil {
					t.Errorf("%s accepted but not written: %v\n%s", flag, err, out)
				}
			})
		}
	}
}

// TestSumsAcrossModes: every mode steps ⌈hours·3600/CouplingDt⌉ windows
// through the one loop, so plain, durable, chaos (an explicit plan and an
// auto plan), 3-rank and checkpoint-then-resume runs land on one
// fingerprint, byte for byte.
func TestSumsAcrossModes(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "published")
	if out, err := runTiny(t, "-hours", "0.2", "-checkpoint", ckpt); err != nil {
		t.Fatalf("-checkpoint run: %v\n%s", err, out)
	}
	var ref []byte
	for i, mode := range [][]string{
		nil,
		{"-ckpt-dir", filepath.Join(dir, "store")},
		{"-chaos", "seed=1,plan=crash@1:dycore;nan@2:atm.qv"},
		{"-chaos", "seed=3"},
		{"-ranks", "3"},
		{"-resume", ckpt},
	} {
		sums := filepath.Join(dir, "sums")
		out, err := runTiny(t, append([]string{"-hours", "0.5", "-sums", sums}, mode...)...)
		if err != nil {
			t.Fatalf("%v: %v\n%s", mode, err, out)
		}
		blob, err := os.ReadFile(sums)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = blob
			if !strings.Contains(string(ref), "windows 3\n") {
				t.Fatalf("plain -hours 0.5 did not step 3 windows:\n%s", ref)
			}
		} else if string(blob) != string(ref) {
			t.Errorf("%v sums diverge from the plain run's:\n%s\nvs:\n%s", mode, blob, ref)
		}
	}
}
