package socket

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzReadFrame holds the decoder of wire bytes to the property the
// checkpoint parsers are held to: whatever the input, no panic, nothing
// allocated beyond a bounded chunk plus a small multiple of the input's
// size — a header is a claim, not yet a payload — and an accepted frame is
// exactly what Send's encoder produces from the values read. The seed
// corpus (an empty frame, one and two floats, a signalling NaN, a negative
// count, counts past and at maxFrameFloats with nothing behind them,
// truncated header and payload) is in testdata/fuzz; plain `go test` runs
// it, `verify.sh full` and the tier-2 CI job fuzz for 10 s.
// allocBound is what decoding n bytes may allocate: the scratch buffer's
// first chunk and its growth with the bytes that arrive (twice over under
// the race detector, which also materialises slices.Grow's temporary), the
// decoded payload, an error.
func allocBound(n int) uint64 { return 4*readChunk + 8*uint64(n) }

func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		rd := bytes.NewReader(raw)
		var scratch []byte
		var fr frame
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr, err = readFrame(rd, &scratch)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > allocBound(len(raw)) {
			t.Errorf("reading %d bytes allocated %d", len(raw), alloc)
		}
		if err != nil {
			return
		}
		read := raw[:len(raw)-rd.Len()]
		if out := appendFrame(nil, int(fr.tag), fr.data); !bytes.Equal(out, read) {
			t.Fatalf("accepted % x, which re-encodes to % x", read, out)
		}
	})
}
