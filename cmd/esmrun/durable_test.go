package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var tinyGrid = []string{"-grid", "1", "-atmlev", "5", "-oclev", "4"}

func runTiny(t *testing.T, extra ...string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := run(append(append([]string{}, tinyGrid...), extra...), &out)
	return out.String(), err
}

// TestDurableResumeSumsIdentical is the tentpole contract at the CLI: a
// run interrupted after a prefix of its windows and resumed with -resume
// lands on a -sums fingerprint byte-for-byte identical to the
// uninterrupted durable run. Each run() call builds a fresh simulation,
// so the resume path exercises a genuine cold start from disk.
func TestDurableResumeSumsIdentical(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.sums")
	resumed := filepath.Join(dir, "resumed.sums")

	out, err := runTiny(t, "-hours", "0.5", "-ckpt-dir", filepath.Join(dir, "full-store"), "-sums", full)
	if err != nil {
		t.Fatalf("uninterrupted durable run: %v\n%s", err, out)
	}
	if !strings.Contains(out, "durable run completed") {
		t.Errorf("missing completion line:\n%s", out)
	}

	// The "interrupted" run: same store, stopped one window early.
	store := filepath.Join(dir, "store")
	if out, err := runTiny(t, "-hours", "0.2", "-ckpt-dir", store); err != nil {
		t.Fatalf("partial durable run: %v\n%s", err, out)
	}
	out, err = runTiny(t, "-hours", "0.5", "-resume", store, "-sums", resumed)
	if err != nil {
		t.Fatalf("resume: %v\n%s", err, out)
	}
	if !strings.Contains(out, "resume: window") {
		t.Errorf("missing resume line:\n%s", out)
	}

	a, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("resumed fingerprint differs:\n%s\nvs uninterrupted:\n%s", b, a)
	}
}

// TestResumeExitCodes: each failure class maps to its own exit code, and
// the failure lands in the JSON RunReport.
func TestResumeExitCodes(t *testing.T) {
	t.Run("dir-missing", func(t *testing.T) {
		_, err := runTiny(t, "-resume", filepath.Join(t.TempDir(), "never-written"))
		if err == nil {
			t.Fatal("resume from a missing directory succeeded")
		}
		if exitCode(err) != exitResumeMissing {
			t.Errorf("exit code %d for %v, want %d", exitCode(err), err, exitResumeMissing)
		}
	})
	t.Run("store-empty", func(t *testing.T) {
		// The directory exists but no generation was ever published:
		// still "nothing to resume", not corruption.
		_, err := runTiny(t, "-resume", t.TempDir())
		if err == nil {
			t.Fatal("resume from an empty store succeeded")
		}
		if exitCode(err) != exitResumeMissing {
			t.Errorf("exit code %d for %v, want %d", exitCode(err), err, exitResumeMissing)
		}
	})
	t.Run("all-corrupt", func(t *testing.T) {
		store := filepath.Join(t.TempDir(), "store")
		if out, err := runTiny(t, "-hours", "0.2", "-ckpt-dir", store); err != nil {
			t.Fatalf("seeding store: %v\n%s", err, out)
		}
		manifests, err := filepath.Glob(filepath.Join(store, "gen_*", "MANIFEST"))
		if err != nil || len(manifests) == 0 {
			t.Fatalf("no manifests to corrupt (err=%v)", err)
		}
		for _, m := range manifests {
			raw, err := os.ReadFile(m)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0x01
			if err := os.WriteFile(m, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		report := filepath.Join(t.TempDir(), "report.json")
		out, err := runTiny(t, "-resume", store, "-report", report)
		if err == nil {
			t.Fatalf("resume from an all-corrupt store succeeded:\n%s", out)
		}
		if exitCode(err) != exitAllCorrupt {
			t.Errorf("exit code %d for %v, want %d", exitCode(err), err, exitAllCorrupt)
		}
		if !strings.Contains(out, "rejected generation") {
			t.Errorf("rejections not reported:\n%s", out)
		}
		blob, rerr := os.ReadFile(report)
		if rerr != nil {
			t.Fatalf("report not written on failure: %v", rerr)
		}
		if !strings.Contains(string(blob), `"failure"`) || !strings.Contains(string(blob), "restart") {
			t.Errorf("failure missing from report:\n%s", blob)
		}
	})
}

// TestDurableFlagValidation: the flag combinations that cannot mean
// anything are rejected before any simulation is built.
func TestDurableFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-ranks", "2", "-resume", "x"},
		{"-ckpt-dir", "x", "-resume", "y"},
		{"-crash-at", "window=1"},
	} {
		if _, err := runTiny(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	if _, err := runTiny(t, "-ckpt-dir", t.TempDir(), "-crash-at", "banana=1", "-hours", "0.1"); err == nil {
		t.Error("malformed -crash-at accepted")
	}
}
