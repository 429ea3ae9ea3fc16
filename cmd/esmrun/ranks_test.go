package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRanksInprocSumsIdentical: the multi-rank run with the distributed
// barotropic solver must land on the exact fingerprint of the plain
// single-process run — the block-aligned cuts and rank-ordered fold make
// the distributed CG bit-identical, so nothing downstream can diverge.
func TestRanksInprocSumsIdentical(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "sums-1")
	var out strings.Builder
	if err := run([]string{"-hours", "0.2", "-grid", "1", "-atmlev", "5", "-oclev", "4",
		"-sums", ref}, &out); err != nil {
		t.Fatalf("1-rank run: %v\n%s", err, out.String())
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []string{"2", "3"} {
		sums := filepath.Join(dir, "sums-"+ranks)
		var out strings.Builder
		if err := run([]string{"-hours", "0.2", "-grid", "1", "-atmlev", "5", "-oclev", "4",
			"-ranks", ranks, "-sums", sums}, &out); err != nil {
			t.Fatalf("%s-rank run: %v\n%s", ranks, err, out.String())
		}
		if !strings.Contains(out.String(), "ranks: "+ranks+" (inproc)") {
			t.Errorf("%s-rank output missing rank summary:\n%s", ranks, out.String())
		}
		got, err := os.ReadFile(sums)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s-rank sums diverge from 1-rank:\n%s\nvs:\n%s", ranks, got, want)
		}
	}
}

// TestRanksSocketSumsIdentical builds the esmrun binary and drives the
// real multi-process path: a parent that re-execs itself into N rank
// processes over unix sockets must produce the byte-identical -sums
// fingerprint of the in-process single-rank run. Skipped under -short:
// it shells out to the go toolchain.
func TestRanksSocketSumsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the esmrun binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "esmrun")
	build := exec.Command("go", "build", "-o", bin, ".")
	if blob, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, blob)
	}

	ref := filepath.Join(dir, "sums-1")
	var out strings.Builder
	if err := run([]string{"-hours", "0.2", "-grid", "1", "-atmlev", "5", "-oclev", "4",
		"-sums", ref}, &out); err != nil {
		t.Fatalf("1-rank run: %v\n%s", err, out.String())
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	sums := filepath.Join(dir, "sums-socket")
	cmd := exec.Command(bin, "-hours", "0.2", "-grid", "1", "-atmlev", "5", "-oclev", "4",
		"-ranks", "3", "-transport", "socket", "-sums", sums)
	blob, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("socket run: %v\n%s", err, blob)
	}
	if !strings.Contains(string(blob), "ranks: 3 (socket)") {
		t.Errorf("socket run output missing rank summary:\n%s", blob)
	}
	got, err := os.ReadFile(sums)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("socket sums diverge from in-process 1-rank:\n%s\nvs:\n%s", got, want)
	}
}

// TestRanksFlagValidation: multi-rank runs reject the modes that need
// per-rank checkpoint stores, and malformed rank/transport values fail
// fast.
func TestRanksFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-ranks", "0"},
		{"-transport", "tcp"},
		{"-ranks", "2", "-chaos", "seed=1"},
		{"-ranks", "2", "-ckpt-dir", "/tmp/x"},
		{"-transport", "socket", "-resume", "/tmp/x"},
		{"-ranks", "2", "-report", "/tmp/x.json"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted, want error", args)
		}
	}
}
