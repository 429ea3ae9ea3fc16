// Package restart implements ICON's checkpoint/restart and output I/O
// schemes (§6.4): synchronous multi-file checkpointing where a
// configurable subset of ranks collects variables and writes one file
// each, staggered reading with redistribution, and asynchronous output
// servers that receive fields via one-sided-style mailboxes and write
// concurrently with model integration.
//
// Real files are written at laptop scale (with bit-identical round-trip
// guarantees); the parallel-filesystem performance model in iomodel.go
// projects the §7 rates (615.61 GiB/s staggered read, 198.19 GiB/s write
// for the 1.25 km ocean restart).
package restart

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"icoearth/internal/trace"
)

// ErrCorrupt reports a restart set that fails validation: a truncated
// file, a bit-flipped payload (per-file CRC mismatch), a missing file, or
// a reassembled snapshot whose checksum differs from the one recorded at
// write time. Callers distinguish it from I/O errors with errors.Is and
// fall back to an older checkpoint generation.
var ErrCorrupt = errors.New("restart: corrupt checkpoint")

// tk, when non-nil, records checkpoint I/O spans with byte counts onto a
// run trace (see internal/trace). Package-level because the multi-file
// read/write entry points are free functions; the calls are serialised by
// their callers (the supervisor) and the track itself is mutex-guarded.
var tk *trace.Track

// SetTrace attaches restart I/O to a trace track; nil detaches (the
// default, costing one branch per multi-file operation).
func SetTrace(t *trace.Track) { tk = t }

// Snapshot is a named collection of model fields — the full state of one
// component to be checkpointed.
type Snapshot struct {
	Fields map[string][]float64
}

// NewSnapshot creates an empty snapshot.
func NewSnapshot() *Snapshot {
	return &Snapshot{Fields: map[string][]float64{}}
}

// Add registers a field (the slice is referenced, not copied).
func (s *Snapshot) Add(name string, data []float64) { s.Fields[name] = data }

// Clone returns a deep copy of the snapshot. The durable store's async
// writer needs one: the live slices a Snapshot references keep mutating
// while the next coupling window runs, so the overlapped checkpoint write
// must capture the state of its own window, not whatever the simulation
// has advanced to by the time the disk catches up.
func (s *Snapshot) Clone() *Snapshot {
	out := &Snapshot{Fields: make(map[string][]float64, len(s.Fields))}
	for name, data := range s.Fields {
		out.Fields[name] = append([]float64(nil), data...)
	}
	return out
}

// TotalBytes returns the payload size.
func (s *Snapshot) TotalBytes() int64 {
	var n int64
	for _, f := range s.Fields {
		n += int64(8 * len(f))
	}
	return n
}

// names returns the field names in deterministic order.
func (s *Snapshot) names() []string {
	out := make([]string, 0, len(s.Fields))
	for n := range s.Fields {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// Checksum returns a deterministic checksum over all fields. Fields are
// marshalled through a chunk buffer so the CRC runs over large blocks —
// crc64's slicing-by-8 kernel needs bulk writes to reach memory speed.
func (s *Snapshot) Checksum() uint64 {
	h := crc64.New(crcTable)
	buf := make([]byte, 1<<16)
	for _, name := range s.names() {
		io.WriteString(h, name)
		data := s.Fields[name]
		for len(data) > 0 {
			n := len(buf) / 8
			if n > len(data) {
				n = len(data)
			}
			for i, v := range data[:n] {
				binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
			}
			h.Write(buf[:8*n])
			data = data[n:]
		}
	}
	return h.Sum64()
}

// magic identifies format version 2: version 1 had no integrity metadata,
// so corruption (truncation, bit flips) was silently accepted. Version 2
// records the writer-file count and whole-snapshot checksum in every
// header and appends a per-file CRC64 trailer.
const magic = uint64(0x49434F4E52535432) // "ICONRST2"

// WriteMultiFile writes the snapshot as nfiles files in dir, mirroring
// ICON's synchronous multi-file scheme: the fields are distributed
// round-robin over the writer "ranks", each producing one self-describing
// file, all at the same time. Each file is written to a temporary name and
// renamed into place (write-then-rename), so a crash mid-checkpoint never
// leaves a half-written restart_*.bin behind. Returns the total bytes
// written.
//
// WriteMultiFile does NOT fsync — it is the fast path for in-run rollback
// checkpoints whose loss costs one retry, not a campaign. The durable
// store (Store.Write) layers fsync and a generation manifest on top for
// checkpoints that must survive process death.
func WriteMultiFile(s *Snapshot, dir string, nfiles int) (int64, error) {
	n, _, _, err := writeMulti(s, dir, nfiles, false)
	return n, err
}

// writeMulti writes s as restart_NNNN.bin shards in dir and reports what
// it wrote: the bytes, the shard count (nfiles clamped to the field count)
// and the whole-snapshot checksum the shard headers record. Every temp is
// complete, and fsynced when fsync is set, before the first is renamed;
// barrier and rename run here, on the calling goroutine, in shard order.
func writeMulti(s *Snapshot, dir string, nfiles int, fsync bool) (int64, int, uint64, error) {
	if nfiles < 1 {
		return 0, 0, 0, fmt.Errorf("restart: nfiles = %d", nfiles)
	}
	t0 := tk.Start()
	nfiles = min(nfiles, len(s.Fields))
	tmps := make([]string, nfiles)
	for w := range tmps {
		tmps[w] = filepath.Join(dir, fmt.Sprintf("restart_%04d.bin.tmp", w))
	}
	total, sum, err := writeShards(s, tmps, fsync)
	for _, tmp := range tmps {
		if err == nil {
			// Durability barrier: the payload is on stable storage before
			// the rename publishes the file, or a crash could leave a
			// correctly-named shard with torn contents.
			killpoint("shard-temp")
			err = os.Rename(tmp, strings.TrimSuffix(tmp, ".tmp"))
		}
		if err != nil {
			os.Remove(tmp)
		}
	}
	if err == nil {
		tk.EndArg("restart:write", t0, "bytes", total)
	}
	return total, nfiles, sum, err
}

const (
	headerBytes = 32      // magic, total file count, snapshot checksum, field count
	chunkBytes  = 1 << 16 // marshalling buffer of each shard writer and reader
)

// eachShard runs fn(0) … fn(n-1) on one goroutine each and returns the
// error of the lowest index that failed.
func eachShard(n int, fn func(w int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(w)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// writeShards writes s as len(paths) complete restart files, file w
// holding every len(paths)-th field in name order from the w-th on, and
// returns the bytes written and the whole-snapshot checksum. Every state
// byte is marshalled, hashed and written once: each shard keeps one
// running CRC64 over its file, the per-field CRCs are read off that
// register (DESIGN.md §13.5) and folded in name order into the value
// Snapshot.Checksum would compute, and only then do the headers, which
// record it, and the trailers go in. On error no file is left behind.
func writeShards(s *Snapshot, paths []string, fsync bool) (total int64, sum uint64, err error) {
	names, n := s.names(), len(paths)
	shards := make([]shard, n)
	err = eachShard(n, func(w int) error {
		for i := w; i < len(names); i += n {
			shards[w].mine = append(shards[w].mine, names[i])
		}
		return shards[w].writeBody(paths[w], s)
	})
	if err == nil {
		for i, name := range names {
			sum = crcCombine(sum, shards[i%n].fields[i/n], int64(len(name)+8*len(s.Fields[name])))
		}
		err = eachShard(n, func(w int) error { return shards[w].finish(uint64(n), sum, fsync) })
	}
	for w := range shards {
		total += shards[w].off
		if err != nil {
			if shards[w].f != nil {
				shards[w].f.Close()
			}
			os.Remove(paths[w])
		}
	}
	return total, sum, err
}

// shard is one restart file being written: header (magic, total file
// count, snapshot checksum, field count), the fields (name length, name,
// element count, elements), and a trailing CRC64 over all of it. Bytes go
// through a chunk buffer that is hashed and written out when it fills.
type shard struct {
	mine      []string // the fields of this file, in file order
	fields    []uint64 // CRC64 of name‖data for each of mine
	f         *os.File
	buf       []byte // buf[:n] is pending, buf[:hashed] of it already in crc
	n, hashed int
	off       int64  // file offset of buf[0]
	crc       uint64 // CRC64 of everything after the header, as of mark
	err       error  // the first failed write
}

// writeBody creates the file and writes its fields, leaving room for the
// header.
func (sh *shard) writeBody(path string, s *Snapshot) error {
	if sh.f, sh.err = os.Create(path); sh.err != nil {
		return sh.err
	}
	sh.buf, sh.off = make([]byte, chunkBytes), headerBytes
	for _, name := range sh.mine {
		data := s.Fields[name]
		sh.put64(uint64(len(name)))
		for rest := name; len(rest) > 0; {
			sh.room(1)
			k := copy(sh.buf[sh.n:], rest)
			sh.n, rest = sh.n+k, rest[k:]
		}
		sh.put64(uint64(len(data)))
		before := sh.mark()
		for rest := data; len(rest) > 0; {
			k := min(sh.room(8)/8, len(rest))
			for i, v := range rest[:k] {
				binary.LittleEndian.PutUint64(sh.buf[sh.n+8*i:], math.Float64bits(v))
			}
			sh.n, rest = sh.n+8*k, rest[k:]
		}
		sh.fields = append(sh.fields, fieldCRC(name, len(data), before, sh.mark()))
	}
	sh.flush()
	return sh.err
}

// finish fills in the header and appends the trailer, its CRC combined
// from the header's and the body's, then syncs if asked and closes.
func (sh *shard) finish(nfiles, sum uint64, fsync bool) error {
	var hdr [headerBytes + 8]byte
	for i, v := range [...]uint64{magic, nfiles, sum, uint64(len(sh.mine))} {
		binary.LittleEndian.PutUint64(hdr[8*i:], v)
	}
	trailer := hdr[headerBytes:]
	binary.LittleEndian.PutUint64(trailer, crcCombine(crc64.Checksum(hdr[:headerBytes], crcTable), sh.crc, sh.off-headerBytes))
	_, err := sh.f.WriteAt(hdr[:headerBytes], 0)
	if err == nil {
		_, err = sh.f.WriteAt(trailer, sh.off)
	}
	sh.off += int64(len(trailer))
	if err == nil && fsync {
		err = sh.f.Sync()
	}
	if cerr := sh.f.Close(); err == nil {
		err = cerr
	}
	sh.f = nil
	return err
}

// mark brings the running CRC up to the last byte buffered and returns it.
func (sh *shard) mark() uint64 {
	sh.crc = crc64.Update(sh.crc, crcTable, sh.buf[sh.hashed:sh.n])
	sh.hashed = sh.n
	return sh.crc
}

func (sh *shard) flush() {
	sh.mark()
	if sh.err == nil {
		_, sh.err = sh.f.WriteAt(sh.buf[:sh.n], sh.off)
	}
	sh.off += int64(sh.n)
	sh.n, sh.hashed = 0, 0
}

// room returns the free space of the buffer, emptying it first if that is
// less than k bytes.
func (sh *shard) room(k int) int {
	if len(sh.buf)-sh.n < k {
		sh.flush()
	}
	return len(sh.buf) - sh.n
}

func (sh *shard) put64(v uint64) {
	sh.room(8)
	binary.LittleEndian.PutUint64(sh.buf[sh.n:], v)
	sh.n += 8
}

// fieldCRC returns CRC64(name‖data) for a field of n elements given the
// running CRC of its file just before and just after the data bytes:
// after = shift(before) ⊕ crc(data) and crc(name‖data) = shift(crc(name))
// ⊕ crc(data), both shifts by the data's length, and shift is linear.
func fieldCRC(name string, n int, before, after uint64) uint64 {
	return after ^ crcShift(before^crc64.Checksum([]byte(name), crcTable), int64(8*n))
}

// crcCombine returns CRC64(A‖B) given CRC64(A), CRC64(B) and len(B).
func crcCombine(a, b uint64, lenB int64) uint64 { return crcShift(a, lenB) ^ b }

// crcShift multiplies crc by x^(8n) in GF(2)[x] modulo the ECMA
// polynomial — what n more zero bytes do to a CRC register — by square
// and multiply. crc64 keeps the low powers in the high bits: x^0 is 1<<63.
func crcShift(crc uint64, n int64) uint64 {
	p, sq := uint64(1)<<63, uint64(1)<<55 // x^0, x^8
	for ; n != 0; n >>= 1 {
		if n&1 != 0 {
			p = mulmod(sq, p)
		}
		sq = mulmod(sq, sq)
	}
	return mulmod(p, crc)
}

// mulmod multiplies two polynomials modulo the ECMA polynomial.
func mulmod(a, b uint64) (p uint64) {
	for ; a != 0; a <<= 1 {
		if a>>63 != 0 {
			p ^= b
		}
		b = b>>1 ^ crc64.ECMA&-(b&1)
	}
	return p
}

// ReadMultiFile reads every restart file in dir, all at the same time,
// reassembles the snapshot, and validates it end to end: per-file CRC
// trailers, the recorded writer count against the files actually present,
// and the whole-snapshot checksum of the bytes read against the one
// recorded at write time. Any mismatch returns an error wrapping
// ErrCorrupt.
func ReadMultiFile(dir string) (*Snapshot, error) {
	s, _, err := readMulti(dir)
	return s, err
}

// readMulti is ReadMultiFile, also returning the checksum it computed:
// the per-field CRCs each shard reader took off its running file CRC,
// folded in name order — Snapshot.Checksum of the result without another
// pass over it.
func readMulti(dir string) (*Snapshot, uint64, error) {
	t0 := tk.Start()
	paths, err := filepath.Glob(filepath.Join(dir, "restart_*.bin"))
	if err != nil {
		return nil, 0, err
	}
	if len(paths) == 0 {
		return nil, 0, fmt.Errorf("restart: no restart files in %s", dir)
	}
	sort.Strings(paths)
	metas := make([]fileMeta, len(paths))
	parts := make([][]shardField, len(paths))
	err = eachShard(len(paths), func(i int) (err error) {
		if metas[i], parts[i], err = readShard(paths[i]); err != nil {
			err = fmt.Errorf("restart: %s: %w", paths[i], err)
		}
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	want := metas[0]
	for i, meta := range metas {
		if meta != want {
			return nil, 0, fmt.Errorf("restart: %s: header disagrees with %s (mixed checkpoint generations): %w",
				paths[i], paths[0], ErrCorrupt)
		}
	}
	if uint64(len(paths)) != want.totalFiles {
		return nil, 0, fmt.Errorf("restart: %s: %d of %d restart files present: %w",
			dir, len(paths), want.totalFiles, ErrCorrupt)
	}
	s := NewSnapshot()
	crcs := map[string]uint64{}
	for _, part := range parts {
		for _, f := range part {
			s.Fields[f.name], crcs[f.name] = f.data, f.crc
		}
	}
	var sum uint64
	for _, name := range s.names() {
		sum = crcCombine(sum, crcs[name], int64(len(name)+8*len(s.Fields[name])))
	}
	if sum != want.snapSum {
		return nil, 0, fmt.Errorf("restart: %s: snapshot checksum %016x, recorded %016x: %w",
			dir, sum, want.snapSum, ErrCorrupt)
	}
	tk.EndArg("restart:read", t0, "bytes", s.TotalBytes())
	return s, sum, nil
}

// fileMeta is the validated header of one restart file.
type fileMeta struct {
	totalFiles uint64
	snapSum    uint64
}

// shardField is one field read from a restart file, with CRC64(name‖data)
// of the bytes it was decoded from.
type shardField struct {
	name string
	data []float64
	crc  uint64
}

// shardReader reads a restart file through a chunk buffer, hashing every
// byte it hands out into one running CRC64. The first failure sticks.
type shardReader struct {
	f    *os.File
	buf  []byte
	r, w int    // buf[r:w] is read but not yet taken
	crc  uint64 // CRC64 of everything taken
	left int64  // bytes before the trailer not yet taken
	err  error
}

func (sr *shardReader) corrupt(format string, args ...any) {
	if sr.err == nil {
		sr.err = fmt.Errorf(format+": %w", append(args, ErrCorrupt)...)
	}
}

// take returns the next n ≤ len(buf) bytes, valid until the next call, or
// nil once the reader has failed; hashed says whether they enter the CRC
// and count against left (the trailer does neither).
func (sr *shardReader) take(n int, hashed bool) []byte {
	if hashed && int64(n) > sr.left {
		sr.corrupt("truncated: %d bytes wanted, %d left", n, sr.left)
	}
	if sr.err == nil && sr.w-sr.r < n {
		sr.r, sr.w = 0, copy(sr.buf, sr.buf[sr.r:sr.w])
		m, err := io.ReadAtLeast(sr.f, sr.buf[sr.w:], n-sr.w)
		if sr.w += m; err == io.EOF || err == io.ErrUnexpectedEOF {
			sr.corrupt("truncated")
		} else {
			sr.err = err
		}
	}
	if sr.err != nil {
		return nil
	}
	b := sr.buf[sr.r : sr.r+n]
	sr.r += n
	if hashed {
		sr.left -= int64(n)
		sr.crc = crc64.Update(sr.crc, crcTable, b)
	}
	return b
}

func (sr *shardReader) get64() uint64 {
	if b := sr.take(8, true); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// readShard reads and validates one restart file: magic, every count and
// length against the bytes the file has left (so a flipped length bit is
// rejected before anything is allocated on its word), and the CRC trailer
// over all preceding bytes, which must be the file's last eight. Elements
// are decoded from the chunk buffer straight into their field.
func readShard(path string) (meta fileMeta, fields []shardField, err error) {
	f, err := os.Open(path)
	if err != nil {
		return meta, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return meta, nil, err
	}
	sr := shardReader{f: f, left: fi.Size() - 8, buf: make([]byte, min(chunkBytes, fi.Size()))}
	if m := sr.get64(); sr.err == nil && m != magic {
		sr.corrupt("bad magic %x", m)
	}
	meta.totalFiles, meta.snapSum = sr.get64(), sr.get64()
	nf := sr.get64()
	if nf > uint64(max(sr.left, 0))/16 {
		sr.corrupt("%d fields with %d bytes left", nf, sr.left)
	}
	if sr.err != nil {
		return meta, nil, sr.err
	}
	for fields = make([]shardField, 0, nf); sr.err == nil && uint64(len(fields)) < nf; {
		nameLen := sr.get64()
		if nameLen > 1<<16 {
			sr.corrupt("field-name length %d", nameLen)
			break
		}
		name := string(sr.take(int(nameLen), true))
		n := sr.get64()
		if n > uint64(sr.left)/8 {
			sr.corrupt("field %q: %d elements with %d bytes left", name, n, sr.left)
			break
		}
		data := make([]float64, n)
		before := sr.crc
		for rest := data; len(rest) > 0 && sr.err == nil; {
			k := (sr.w - sr.r) / 8
			if k == 0 {
				k = len(sr.buf) / 8
			}
			k = min(k, len(rest))
			b := sr.take(8*k, true)
			for j := range len(b) / 8 {
				rest[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:]))
			}
			rest = rest[k:]
		}
		fields = append(fields, shardField{name, data, fieldCRC(name, len(data), before, sr.crc)})
	}
	if sr.left != 0 {
		sr.corrupt("%d bytes between the last field and the trailer", sr.left)
	}
	if b := sr.take(8, false); b != nil && binary.LittleEndian.Uint64(b) != sr.crc {
		sr.corrupt("file CRC %016x, computed %016x", binary.LittleEndian.Uint64(b), sr.crc)
	}
	if sr.err != nil {
		return meta, nil, sr.err
	}
	return meta, fields, nil
}
