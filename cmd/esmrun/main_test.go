package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"icoearth/internal/sched"
)

// TestSmokeTinyGrid drives the full esmrun path on the smallest grid for
// a few simulated minutes: exit nil + the expected stdout shape.
func TestSmokeTinyGrid(t *testing.T) {
	var out strings.Builder
	ckpt := filepath.Join(t.TempDir(), "restart")
	err := run([]string{"-hours", "0.1", "-grid", "1", "-atmlev", "5", "-oclev", "4",
		"-checkpoint", ckpt}, &out)
	if err != nil {
		t.Fatalf("esmrun failed: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"icoearth coupled Earth system — grid R2B1",
		"initial: water",
		"τ(sim machine)=",
		"conservation: water drift",
		"energy (simulated):",
		"checkpoint:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	files, err := os.ReadDir(ckpt)
	if err != nil || len(files) == 0 {
		t.Errorf("checkpoint dir empty (err=%v)", err)
	}
}

// TestChaosSmoke: a chaos run with an explicit crash+NaN plan survives,
// reports its recoveries, and writes the JSON RunReport with the chaos
// fields beside its own.
func TestChaosSmoke(t *testing.T) {
	var out strings.Builder
	report := filepath.Join(t.TempDir(), "report.json")
	err := run([]string{"-hours", "0.5", "-grid", "1", "-atmlev", "5", "-oclev", "4",
		"-chaos", "seed=1,plan=crash@1:dycore;nan@2:atm.qv",
		"-report", report}, &out)
	if err != nil {
		t.Fatalf("chaos run failed: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"chaos: seed 1",
		"injected @1",
		"rollbacks",
		"chaos run completed",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	blob, err := os.ReadFile(report)
	if err != nil {
		t.Fatalf("no JSON report: %v", err)
	}
	for _, want := range []string{`"seed": 1`, `"rollbacks"`, `"completed": true`} {
		if !strings.Contains(string(blob), want) {
			t.Errorf("report missing %q:\n%s", want, blob)
		}
	}
}

// TestChaosParallelWorkers reruns the chaos acceptance plan with the
// kernel worker pool widened to 4: fault injection, rollback and retry
// must still converge, and the conserved-quantity checks inside the
// supervisor must still pass — parallel kernels are bit-identical to
// serial ones, so chaos recovery must be width-independent.
func TestChaosParallelWorkers(t *testing.T) {
	defer sched.SetWorkers(0)
	var out strings.Builder
	err := run([]string{"-hours", "0.5", "-grid", "1", "-atmlev", "5", "-oclev", "4",
		"-workers", "4",
		"-chaos", "seed=1,plan=crash@1:dycore;nan@2:atm.qv"}, &out)
	if err != nil {
		t.Fatalf("chaos run with -workers 4 failed: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"injected @1", "rollbacks", "chaos run completed"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestSumsDeterminismMatrix is the determinism matrix of the CI tier-1
// job run in-process: the -sums fingerprint (exact hex-float conserved
// totals) must be byte-for-byte identical across worker widths {1, 4} ×
// overlap {on, off} — the overlapped==sequential and workers=N==workers=1
// contracts collapsed into one diffable artifact.
func TestSumsDeterminismMatrix(t *testing.T) {
	defer sched.SetWorkers(0)
	dir := t.TempDir()
	var ref []byte
	for _, workers := range []string{"1", "4"} {
		for _, overlap := range []string{"true", "false"} {
			sums := filepath.Join(dir, "sums-"+workers+"-"+overlap)
			var out strings.Builder
			err := run([]string{"-hours", "0.2", "-grid", "1", "-atmlev", "5", "-oclev", "4",
				"-workers", workers, "-overlap=" + overlap, "-sums", sums}, &out)
			if err != nil {
				t.Fatalf("workers=%s overlap=%s: %v\noutput:\n%s", workers, overlap, err, out.String())
			}
			blob, err := os.ReadFile(sums)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(blob), "total_water_kg 0x") {
				t.Fatalf("sums file malformed:\n%s", blob)
			}
			if ref == nil {
				ref = blob
			} else if string(blob) != string(ref) {
				t.Errorf("workers=%s overlap=%s sums diverge:\n%s\nvs reference:\n%s",
					workers, overlap, blob, ref)
			}
		}
	}
}

// TestChaosSumsOverlapIdentical: the bit-identity contract includes the
// chaos path — a seeded fault plan driven through rollback and retry
// must land on the same exact totals with the window overlapped and
// serialised.
func TestChaosSumsOverlapIdentical(t *testing.T) {
	dir := t.TempDir()
	var ref []byte
	for _, overlap := range []string{"true", "false"} {
		sums := filepath.Join(dir, "sums-"+overlap)
		var out strings.Builder
		err := run([]string{"-hours", "0.5", "-grid", "1", "-atmlev", "5", "-oclev", "4",
			"-chaos", "seed=1,plan=crash@1:dycore;nan@2:atm.qv",
			"-overlap=" + overlap, "-sums", sums}, &out)
		if err != nil {
			t.Fatalf("chaos overlap=%s: %v\noutput:\n%s", overlap, err, out.String())
		}
		blob, err := os.ReadFile(sums)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = blob
		} else if string(blob) != string(ref) {
			t.Errorf("chaos sums diverge across overlap modes:\n%s\nvs:\n%s", blob, ref)
		}
	}
}

// TestChaosTraceTimeline is the PR's acceptance run: a -chaos run with
// -trace must produce a Chrome trace-event file whose timeline shows the
// injected fault, the rollback span, and the retried window.
func TestChaosTraceTimeline(t *testing.T) {
	var out strings.Builder
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	err := run([]string{"-hours", "0.5", "-grid", "1", "-atmlev", "5", "-oclev", "4",
		"-chaos", "seed=1,plan=crash@1:dycore",
		"-trace", tracePath}, &out)
	if err != nil {
		t.Fatalf("traced chaos run failed: %v\noutput:\n%s", err, out.String())
	}
	blob, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("no trace file: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	count := map[string]int{}
	for _, e := range doc.TraceEvents {
		count[e.Name+"/"+e.Ph]++
	}
	// The crash→rollback→retry timeline, event by event.
	if count["fault:crash/i"] != 1 {
		t.Errorf("injected fault instants = %d, want 1", count["fault:crash/i"])
	}
	if count["supervisor:rollback/X"] < 1 {
		t.Errorf("no rollback span in trace")
	}
	if count["supervisor:retry/i"] < 1 {
		t.Errorf("no retry instant in trace")
	}
	// 3 windows complete + at least the crashed attempt.
	if count["window/X"] < 4 {
		t.Errorf("window spans = %d, want >= 4 (3 completed + 1 retried)", count["window/X"])
	}
	if count["restart:read/X"] < 1 || count["restart:write/X"] < 1 {
		t.Errorf("checkpoint I/O spans missing: %v read, %v write",
			count["restart:read/X"], count["restart:write/X"])
	}
	if !strings.Contains(out.String(), "trace summary") {
		t.Errorf("stdout missing trace summary:\n%s", out.String())
	}
}

// TestChaosBadSpecRejected: malformed chaos specs fail fast.
func TestChaosBadSpecRejected(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-grid", "1", "-atmlev", "5", "-oclev", "4",
		"-chaos", "plan=crash@1"}, &out); err == nil {
		t.Fatal("chaos spec without seed accepted")
	}
}

func TestBadFlagRejected(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
}
