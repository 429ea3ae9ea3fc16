package restart

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func writeGen(t *testing.T, st *Store, window int) *Snapshot {
	t.Helper()
	s := sampleSnapshot(200 + window)
	if _, _, err := st.Write(s, window, 3); err != nil {
		t.Fatal(err)
	}
	return s
}

func snapshotsEqual(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if got.Checksum() != want.Checksum() {
		t.Fatal("snapshot checksum mismatch")
	}
	for name, w := range want.Fields {
		g := got.Fields[name]
		if len(g) != len(w) {
			t.Fatalf("field %s length %d, want %d", name, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("field %s differs at %d", name, i)
			}
		}
	}
}

func TestStoreRoundTripAndRetention(t *testing.T) {
	st, err := OpenStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	writeGen(t, st, 0)
	writeGen(t, st, 1)
	s2 := writeGen(t, st, 2)
	// Retention: only the newest two generations survive GC.
	gens := st.scan()
	if len(gens) != 2 || gens[0].seq != 3 || gens[1].seq != 2 {
		t.Fatalf("retained generations: %+v", gens)
	}
	snap, meta, rejected, err := st.LoadNewest()
	if err != nil {
		t.Fatal(err)
	}
	if len(rejected) != 0 {
		t.Errorf("pristine store rejected generations: %+v", rejected)
	}
	if meta.Seq != 3 || meta.Window != 2 || meta.NFiles != 3 {
		t.Errorf("meta = %+v", meta)
	}
	snapshotsEqual(t, snap, s2)
}

func TestStoreSequenceSurvivesReopen(t *testing.T) {
	root := t.TempDir()
	st, err := OpenStore(root, 2)
	if err != nil {
		t.Fatal(err)
	}
	writeGen(t, st, 0)
	writeGen(t, st, 1)
	// A new process opening the same store must keep numbering upward,
	// never reusing a directory a dead writer might have littered.
	st2, err := OpenStore(root, 2)
	if err != nil {
		t.Fatal(err)
	}
	writeGen(t, st2, 2)
	if _, meta, _, err := st2.LoadNewest(); err != nil || meta.Seq != 3 {
		t.Fatalf("after reopen: meta %+v err %v", meta, err)
	}
}

func TestStoreEmptyRoot(t *testing.T) {
	st, err := OpenStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = st.LoadNewest()
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty store: %v, want ErrNoCheckpoint", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Error("empty store must not read as corrupt")
	}
}

// corruptSites enumerates every file of the newest generation crossed
// with every damage mode — the torn-write matrix. For each site the store
// must either fall back to the previous generation (reporting the
// rejection) or surface a typed error; it must never return torn data.
func corruptSites(t *testing.T, dir string) map[string]func() {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sites := map[string]func(){}
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		name := e.Name()
		sites[name+"/truncate"] = func() {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()/2); err != nil {
				t.Fatal(err)
			}
		}
		sites[name+"/bitflip"] = func() {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/3] ^= 0x20
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		sites[name+"/missing"] = func() {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}
		if strings.HasPrefix(name, "restart_") {
			// One high bit of the header's field count: 2^36 more fields
			// than the file has bytes. Must be rejected, not allocated for.
			sites[name+"/hugecount"] = func() {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				raw[24+4] ^= 0x10
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return sites
}

// TestStoreFallsBackOnEveryCorruptionSite: damage the newest generation
// at every site (manifest and each shard × truncate/bitflip/missing, each
// shard × an impossible field count) and assert the previous generation is restored with the rejection reported.
func TestStoreFallsBackOnEveryCorruptionSite(t *testing.T) {
	root := t.TempDir()
	probe, err := OpenStore(root, 2)
	if err != nil {
		t.Fatal(err)
	}
	writeGen(t, probe, 0)
	writeGen(t, probe, 1)
	newest := probe.scan()[0].dir
	siteNames := make([]string, 0, 15)
	for name := range corruptSites(t, newest) {
		siteNames = append(siteNames, name)
	}
	for _, site := range siteNames {
		t.Run(site, func(t *testing.T) {
			st, err := OpenStore(t.TempDir(), 2)
			if err != nil {
				t.Fatal(err)
			}
			s0 := writeGen(t, st, 0)
			writeGen(t, st, 1)
			gens := st.scan()
			corruptSites(t, gens[0].dir)[site]()
			snap, meta, rejected, err := st.LoadNewest()
			if err != nil {
				t.Fatalf("no fallback: %v", err)
			}
			if meta.Window != 0 {
				t.Errorf("restored window %d, want the older generation (0)", meta.Window)
			}
			if len(rejected) != 1 || rejected[0].Seq != gens[0].seq {
				t.Fatalf("rejected = %+v", rejected)
			}
			if rejected[0].Reason == "" || !strings.Contains(rejected[0].Reason, "restart") {
				t.Errorf("rejection reason %q", rejected[0].Reason)
			}
			snapshotsEqual(t, snap, s0)
			// The rejected generation is dropped from disk: a later load
			// must not trip over it again.
			if got := st.scan(); len(got) != 1 {
				t.Errorf("corrupt generation not dropped: %+v", got)
			}
		})
	}
	if len(siteNames) < 8 {
		t.Fatalf("corruption matrix too small: %v", siteNames)
	}
}

// TestStoreAllGenerationsCorrupt: with every generation damaged the store
// reports a typed error naming each rejected generation and its reason.
func TestStoreAllGenerationsCorrupt(t *testing.T) {
	st, err := OpenStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	writeGen(t, st, 0)
	writeGen(t, st, 1)
	for _, g := range st.scan() {
		raw, err := os.ReadFile(filepath.Join(g.dir, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x01
		if err := os.WriteFile(filepath.Join(g.dir, manifestName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, _, err = st.LoadNewest()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("all-corrupt store: %v, want ErrCorrupt", err)
	}
	var nv *NoValidGenerationError
	if !errors.As(err, &nv) {
		t.Fatalf("error not typed *NoValidGenerationError: %v", err)
	}
	if len(nv.Rejected) != 2 {
		t.Errorf("rejected = %+v, want both generations", nv.Rejected)
	}
	for _, r := range nv.Rejected {
		if r.Reason == "" {
			t.Errorf("generation %d rejected without a reason", r.Seq)
		}
	}
}

// TestStoreManifestIsTheCommitPoint: a generation directory with shards
// but no manifest (crash between shard renames and the manifest rename)
// simply does not exist as far as recovery is concerned.
func TestStoreManifestIsTheCommitPoint(t *testing.T) {
	st, err := OpenStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	s0 := writeGen(t, st, 0)
	writeGen(t, st, 1)
	newest := st.scan()[0]
	if err := os.Remove(filepath.Join(newest.dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	snap, meta, rejected, err := st.LoadNewest()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Window != 0 || len(rejected) != 1 {
		t.Fatalf("meta %+v rejected %+v", meta, rejected)
	}
	snapshotsEqual(t, snap, s0)
}

func TestStoreAsyncWrite(t *testing.T) {
	st, err := OpenStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	s := sampleSnapshot(300)
	st.WriteAsync(s.Clone(), 5, 3)
	res := st.WaitResult()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Window != 5 || res.Bytes < s.TotalBytes() || res.Dir == "" {
		t.Fatalf("async result %+v", res)
	}
	snap, meta, _, err := st.LoadNewest()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Window != 5 {
		t.Errorf("window %d", meta.Window)
	}
	snapshotsEqual(t, snap, s)
}

// TestStoreAsyncWriteErrorNoLeak: an async write into a destroyed root
// surfaces its error at the join and leaves no writer goroutine behind —
// the error path must not strand the single-flight channel either, so a
// subsequent write still works once the root is back.
func TestStoreAsyncWriteErrorNoLeak(t *testing.T) {
	root := filepath.Join(t.TempDir(), "store")
	st, err := OpenStore(root, 2)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	if err := os.RemoveAll(root); err != nil {
		t.Fatal(err)
	}
	// The root's parent survives, but gen-dir creation targets a path
	// whose parent is gone on some systems — force the failure portably
	// by placing a FILE where the root directory should be.
	if err := os.WriteFile(root, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	st.WriteAsync(sampleSnapshot(50), 0, 2)
	if err := st.Wait(); err == nil {
		t.Fatal("async write into a clobbered root reported no error")
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseline {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("writer goroutine leaked: baseline %d, now %d", baseline, n)
	}
	// Recovery: restore the root and the store keeps working.
	if err := os.Remove(root); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatal(err)
	}
	st.WriteAsync(sampleSnapshot(50), 1, 2)
	if err := st.Wait(); err != nil {
		t.Fatalf("store did not recover after error: %v", err)
	}
}

// TestStoreAsyncBackToBack: a second WriteAsync before the first is
// joined must serialise, keep both generations ordered, and not deliver
// the first write's result to the second join.
func TestStoreAsyncBackToBack(t *testing.T) {
	st, err := OpenStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	st.WriteAsync(sampleSnapshot(100), 0, 2)
	st.WriteAsync(sampleSnapshot(101), 1, 2)
	res := st.WaitResult()
	if res.Err != nil || res.Window != 1 {
		t.Fatalf("joined result %+v, want window 1", res)
	}
	if _, meta, _, err := st.LoadNewest(); err != nil || meta.Window != 1 || meta.Seq != 2 {
		t.Fatalf("meta %+v err %v", meta, err)
	}
}

func TestSnapshotCloneIsDeep(t *testing.T) {
	s := sampleSnapshot(10)
	c := s.Clone()
	s.Fields["rho"][0] = -1e9
	if c.Fields["rho"][0] == -1e9 {
		t.Fatal("Clone shares storage with the original")
	}
	if c.Checksum() == s.Checksum() {
		t.Fatal("mutation visible through clone checksum")
	}
}
