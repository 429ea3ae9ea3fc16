package restart

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestCRCCombineMatchesConcatenation: the identity the single-pass writer
// and reader rest on, over lengths that include 0, sub-word tails and more
// than a chunk buffer many times over.
func TestCRCCombineMatchesConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	buf := make([]byte, 3<<20)
	rng.Read(buf)
	lens := []int{0, 1, 7, 8, 63, 64, 65, chunkBytes - 1, chunkBytes, chunkBytes + 1, 1<<20 + 3, 2 << 20}
	for i := 0; i < 40; i++ {
		lens = append(lens, rng.Intn(1<<uint(1+rng.Intn(20))))
	}
	for _, la := range lens {
		for _, lb := range []int{lens[rng.Intn(len(lens))], 0, 1, 1<<20 + 1} {
			if la+lb > len(buf) {
				continue
			}
			a, b := buf[:la], buf[la:la+lb]
			want := crc64.Checksum(buf[:la+lb], crcTable)
			got := crcCombine(crc64.Checksum(a, crcTable), crc64.Checksum(b, crcTable), int64(lb))
			if got != want {
				t.Fatalf("|a|=%d |b|=%d: combined %016x, crc(a‖b) %016x", la, lb, got, want)
			}
		}
	}
	if got := crcShift(0x0123456789abcdef, 0); got != 0x0123456789abcdef {
		t.Errorf("shift by 0 bytes changed the value: %016x", got)
	}
}

// oddSnapshot is sampleSnapshot plus the shapes a round-robin writer can
// trip over: an empty field, a one-element field, a name longer than a
// word, and a field longer than the chunk buffer.
func oddSnapshot(n int) *Snapshot {
	s := sampleSnapshot(n)
	s.Add("empty", nil)
	s.Add("one", []float64{-0.5})
	s.Add("a.rather.longer.field.name/with-punctuation", []float64{1, 2, 3})
	long := make([]float64, chunkBytes/8*3+5)
	for i := range long {
		long[i] = float64(i) * 0.25
	}
	s.Add("long", long)
	return s
}

func dirFiles(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = raw
	}
	return out
}

func sameFiles(t testing.TB, what string, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d files, oracle %d", what, len(got), len(want))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Fatalf("%s: %s missing", what, name)
		} else if !bytes.Equal(g, w) {
			t.Fatalf("%s: %s differs from the oracle's (%d vs %d bytes)", what, name, len(g), len(w))
		}
	}
}

// checkAgainstOracle writes s with the live writer and with the retired
// three-pass one and requires the same files byte for byte, the returned
// checksum to be Snapshot.Checksum, and each side's files to load through
// the other side's reader.
func checkAgainstOracle(t *testing.T, s *Snapshot, nfiles int) {
	t.Helper()
	what := fmt.Sprintf("nfiles=%d", nfiles)
	live, oracle := t.TempDir(), t.TempDir()
	n, nshards, sum, err := writeMulti(s, live, nfiles, true)
	if err != nil {
		t.Fatal(err)
	}
	on, err := writeFiles(s, oracle, nfiles, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != on {
		t.Errorf("%s: wrote %d bytes, oracle %d", what, n, on)
	}
	if want := min(nfiles, len(s.Fields)); nshards != want {
		t.Errorf("%s: reported %d shards, want %d", what, nshards, want)
	}
	if want := s.Checksum(); sum != want {
		t.Errorf("%s: writer returned checksum %016x, Snapshot.Checksum %016x", what, sum, want)
	}
	sameFiles(t, what, dirFiles(t, live), dirFiles(t, oracle))

	got, gotSum, err := readMulti(oracle)
	if err != nil {
		t.Fatalf("%s: live reader on the oracle's files: %v", what, err)
	}
	snapshotsEqual(t, got, s)
	if want := got.Checksum(); gotSum != want {
		t.Errorf("%s: reader returned checksum %016x, Snapshot.Checksum of what it read %016x", what, gotSum, want)
	}
	if got, err = readMultiFile(live); err != nil {
		t.Fatalf("%s: oracle reader on the live files: %v", what, err)
	}
	snapshotsEqual(t, got, s)
}

func TestShardsByteEqualToOracle(t *testing.T) {
	single := NewSnapshot()
	single.Add("only", []float64{3.25})
	allEmpty := NewSnapshot()
	allEmpty.Add("a", nil)
	allEmpty.Add("b", []float64{})
	for name, s := range map[string]*Snapshot{
		"sample": sampleSnapshot(1000), "odd": oddSnapshot(333), "single": single, "empty-fields": allEmpty,
	} {
		for _, nfiles := range []int{1, 2, 3, 7, len(s.Fields), len(s.Fields) + 1, 99} {
			t.Run(fmt.Sprintf("%s/%d", name, nfiles), func(t *testing.T) { checkAgainstOracle(t, s, nfiles) })
		}
	}
}

// TestStoreGenerationsInterchangeWithOracle: a generation laid down by
// the retired writer (shards, then the manifest with Snapshot.Checksum)
// restores through the live store, and a live generation — manifest
// included — is byte-equal to it and passes the retired reader with the
// manifest's checksum equal to a fresh pass over what was read.
func TestStoreGenerationsInterchangeWithOracle(t *testing.T) {
	s := oddSnapshot(700)
	const window, nfiles = 4, 3
	st, err := OpenStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	n, liveDir, err := st.Write(s, window, nfiles)
	if err != nil {
		t.Fatal(err)
	}

	root := t.TempDir()
	oracleDir := filepath.Join(root, fmt.Sprintf("%s%08d", genPrefix, 1))
	if err := os.MkdirAll(oracleDir, 0o755); err != nil {
		t.Fatal(err)
	}
	on, err := writeFiles(s, oracleDir, nfiles, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeManifest(oracleDir, GenMeta{Seq: 1, Window: window, NFiles: nfiles, Sum: s.Checksum(), Bytes: on}); err != nil {
		t.Fatal(err)
	}
	if n != on {
		t.Errorf("store wrote %d bytes, oracle %d", n, on)
	}
	sameFiles(t, "generation", dirFiles(t, liveDir), dirFiles(t, oracleDir))

	ost, err := OpenStore(root, 2)
	if err != nil {
		t.Fatal(err)
	}
	snap, meta, rejected, err := ost.LoadNewest()
	if err != nil || len(rejected) != 0 {
		t.Fatalf("oracle generation through the live store: %v, rejected %+v", err, rejected)
	}
	if meta.Window != window || meta.NFiles != nfiles || meta.Sum != s.Checksum() {
		t.Errorf("meta %+v", meta)
	}
	snapshotsEqual(t, snap, s)

	got, err := readMultiFile(liveDir)
	if err != nil {
		t.Fatalf("live generation through the oracle reader: %v", err)
	}
	lm, err := readManifest(filepath.Join(liveDir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if lm.Sum != got.Checksum() || lm.NFiles != nfiles {
		t.Errorf("live manifest %+v, checksum of the state read back %016x", lm, got.Checksum())
	}
}

// TestManifestShardCountIsTheWriters: asking for more shards than fields
// records the count actually written, which is what a load then demands.
func TestManifestShardCountIsTheWriters(t *testing.T) {
	st, err := OpenStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	s := sampleSnapshot(10)
	if _, _, err := st.Write(s, 0, 50); err != nil {
		t.Fatal(err)
	}
	_, meta, rejected, err := st.LoadNewest()
	if err != nil || len(rejected) != 0 {
		t.Fatalf("load: %v, rejected %+v", err, rejected)
	}
	if meta.NFiles != len(s.Fields) {
		t.Errorf("manifest records %d shards, %d fields were written one each", meta.NFiles, len(s.Fields))
	}
}

// allocatedBy reports the bytes fn allocated (process-wide; the tests of
// this package do not run in parallel).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCorruptLengthCannotAllocate: a count or length the file cannot hold
// is rejected as corruption before anything is allocated on its word —
// one flipped high bit in a file of a few dozen bytes used to ask for
// gigabytes ahead of the CRC check that would have caught it.
func TestCorruptLengthCannotAllocate(t *testing.T) {
	dir := t.TempDir()
	s := NewSnapshot()
	s.Add("f", []float64{1, 2, 3})
	if _, err := WriteMultiFile(s, dir, 1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "restart_0000.bin")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Offsets: header 0–31 (field count at 24), name length at 32, the
	// one-byte name at 40, element count at 41.
	for what, edit := range map[string]func(raw []byte) []byte{
		"field count 2^36":      func(raw []byte) []byte { raw[24+4] ^= 0x10; return raw },
		"field count 2^63":      func(raw []byte) []byte { raw[24+7] ^= 0x80; return raw },
		"name length 2^16":      func(raw []byte) []byte { raw[32+2] ^= 0x01; return raw },
		"name length 2^40":      func(raw []byte) []byte { raw[32+5] ^= 0x01; return raw },
		"element count 2^28":    func(raw []byte) []byte { raw[41+3] ^= 0x10; return raw },
		"element count 2^27":    func(raw []byte) []byte { raw[41+3] ^= 0x08; return raw },
		"element count 2^62":    func(raw []byte) []byte { raw[41+7] ^= 0x40; return raw },
		"one element too many":  func(raw []byte) []byte { raw[41]++; return raw },
		"bytes after trailer":   func(raw []byte) []byte { return append(raw, 0, 0, 0, 0, 0, 0, 0, 0) },
		"shorter than a header": func(raw []byte) []byte { return raw[:39] },
		"empty":                 func(raw []byte) []byte { return raw[:0] },
	} {
		raw := edit(append([]byte(nil), good...))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var rerr error
		alloc := allocatedBy(func() { _, _, rerr = readShard(path) })
		if !errors.Is(rerr, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", what, rerr)
		}
		if alloc > 1<<16 {
			t.Errorf("%s: rejecting a %d-byte file allocated %d bytes", what, len(raw), alloc)
		}
		if _, err := ReadMultiFile(dir); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: ReadMultiFile: %v, want ErrCorrupt", what, err)
		}
	}
	if binary.LittleEndian.Uint64(good[24:]) != 1 || binary.LittleEndian.Uint64(good[41:]) != 3 {
		t.Fatal("the offsets this test edits no longer hold the field and element counts")
	}
}

// TestAsyncOutputReportsVanishedSink: with the sink directory removed
// mid-run the servers' failures reach Close instead of being dropped, and
// what was written before is intact and counted.
func TestAsyncOutputReportsVanishedSink(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sink")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	a := NewAsyncOutput(dir, 2, 4)
	data := []float64{1, 2, 3, 4}
	for step := 0; step < 6; step++ {
		a.Put("sst", step, data)
	}
	for a.BytesWritten() < 6*int64(headerBytes+8+3+8+8*len(data)+8) {
		runtime.Gosched()
	}
	files := dirFiles(t, dir)
	if len(files) != 6 {
		t.Fatalf("%d files before the sink vanished, want 6", len(files))
	}
	for name := range files {
		_, fields, err := readShard(filepath.Join(dir, name))
		if err != nil || len(fields) != 1 || fields[0].name != "sst" || len(fields[0].data) != len(data) {
			t.Fatalf("%s: %v, fields %+v", name, err, fields)
		}
	}
	before := a.BytesWritten()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	for step := 6; step < 10; step++ {
		a.Put("sst", step, data)
	}
	if err := a.Close(); err == nil {
		t.Fatal("Close reported no error although the sink directory was gone")
	}
	if got := a.BytesWritten(); got != before {
		t.Errorf("bytes written grew from %d to %d with no directory to write into", before, got)
	}
}
