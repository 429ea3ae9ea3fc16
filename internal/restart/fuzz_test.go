package restart

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// The fuzz targets hold the two parsers of on-disk bytes to one property:
// whatever the input, no panic, nothing allocated beyond a small multiple
// of the input's size, only ErrCorrupt as a verdict, and an accepted input
// is exactly what the writer produces from the values read — so there is
// no second spelling of a valid file for damage to land on. Seed corpora
// (a valid tiny shard and manifest, each truncated and bit-flipped, plus
// shards with impossible lengths) are in testdata/fuzz; plain `go test`
// runs them, `verify.sh full` and the tier-2 CI job fuzz for 10 s each.

// allocBound is what parsing n bytes may allocate: the chunk buffer, the
// field table (40 bytes for every 16 the file could spend on a field), the
// decoded data, error strings and the os.File.
func allocBound(n int) uint64 { return 1<<14 + 8*uint64(n) }

func FuzzReadShard(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "restart_0000.bin")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var meta fileMeta
		var fields []shardField
		var err error
		if alloc := allocatedBy(func() { meta, fields, err = readShard(path) }); alloc > allocBound(len(raw)) {
			t.Errorf("reading %d bytes allocated %d", len(raw), alloc)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejected with an error that is not ErrCorrupt: %v", err)
			}
			return
		}
		s := NewSnapshot()
		sh := shard{}
		for _, fl := range fields {
			if _, dup := s.Fields[fl.name]; dup {
				return // a Snapshot cannot hold it, so the writer cannot be asked to write it
			}
			s.Add(fl.name, fl.data)
			sh.mine = append(sh.mine, fl.name)
		}
		again := filepath.Join(dir, "again.bin")
		if err := sh.writeBody(again, s); err != nil {
			t.Fatal(err)
		}
		if err := sh.finish(meta.totalFiles, meta.snapSum, false); err != nil {
			t.Fatal(err)
		}
		if out, err := os.ReadFile(again); err != nil || !bytes.Equal(out, raw) {
			t.Fatalf("accepted %d bytes that re-encode to %d different ones (%v)", len(raw), len(out), err)
		}
	})
}

func FuzzReadManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), manifestName)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var m GenMeta
		var err error
		if alloc := allocatedBy(func() { m, err = readManifest(path) }); alloc > allocBound(len(raw)) {
			t.Errorf("reading %d bytes allocated %d", len(raw), alloc)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejected with an error that is not ErrCorrupt: %v", err)
			}
			return
		}
		if out := encodeManifest(m); !bytes.Equal(out, raw) {
			t.Fatalf("accepted %q, which re-encodes to %q", raw, out)
		}
	})
}
