package restart

// The sequential three-pass writer and reader this package shipped until
// the single-pass shard code replaced them, kept verbatim as the oracle:
// the whole-snapshot checksum is Snapshot.Checksum run over the state,
// every file's trailer a second CRC over the bytes as they are written or
// read, one shard after the other on the calling goroutine. The files the
// live writer produces must be byte-equal to these, and each side's files
// must load through the other side's reader.

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

func writeFiles(s *Snapshot, dir string, nfiles int, sync bool) (int64, error) {
	if nfiles < 1 {
		return 0, fmt.Errorf("restart: nfiles = %d", nfiles)
	}
	names := s.names()
	if nfiles > len(names) {
		nfiles = len(names)
	}
	snapSum := s.Checksum()
	var total int64
	for w := 0; w < nfiles; w++ {
		var mine []string
		for i := w; i < len(names); i += nfiles {
			mine = append(mine, names[i])
		}
		path := filepath.Join(dir, fmt.Sprintf("restart_%04d.bin", w))
		tmp := path + ".tmp"
		f, err := os.Create(tmp)
		if err != nil {
			return total, err
		}
		n, err := writeFile(f, s, mine, uint64(nfiles), snapSum)
		if err == nil && sync {
			err = f.Sync()
		}
		cerr := f.Close()
		total += n
		if err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, path)
		}
		if err != nil {
			os.Remove(tmp)
			return total, err
		}
	}
	return total, nil
}

// writeFile emits one self-describing restart file holding the named
// fields: header (magic, total file count, snapshot checksum, field
// count), the fields, and a trailing CRC64 over everything before it.
func writeFile(f *os.File, s *Snapshot, mine []string, totalFiles, snapSum uint64) (int64, error) {
	var count int64
	h := crc64.New(crcTable)
	write := func(p []byte) error {
		n, err := f.Write(p)
		count += int64(n)
		h.Write(p[:n])
		return err
	}
	put64 := func(v uint64) error {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		return write(buf[:])
	}
	if err := put64(magic); err != nil {
		return count, err
	}
	if err := put64(totalFiles); err != nil {
		return count, err
	}
	if err := put64(snapSum); err != nil {
		return count, err
	}
	if err := put64(uint64(len(mine))); err != nil {
		return count, err
	}
	for _, name := range mine {
		data := s.Fields[name]
		if err := put64(uint64(len(name))); err != nil {
			return count, err
		}
		if err := write([]byte(name)); err != nil {
			return count, err
		}
		if err := put64(uint64(len(data))); err != nil {
			return count, err
		}
		buf := make([]byte, 8*len(data))
		for i, v := range data {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		if err := write(buf); err != nil {
			return count, err
		}
	}
	// Trailer: CRC of all preceding bytes, excluded from the CRC itself.
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], h.Sum64())
	n, err := f.Write(buf[:])
	count += int64(n)
	return count, err
}

// readMultiFile is the oracle's ReadMultiFile: files in path order, the
// reassembled snapshot checksummed by a third pass over the state.
func readMultiFile(dir string) (*Snapshot, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "restart_*.bin"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("restart: no restart files in %s", dir)
	}
	sort.Strings(paths)
	s := NewSnapshot()
	var wantFiles, wantSum uint64
	for i, p := range paths {
		meta, err := readFile(p, s)
		if err != nil {
			return nil, fmt.Errorf("restart: %s: %w", p, err)
		}
		if i == 0 {
			wantFiles, wantSum = meta.totalFiles, meta.snapSum
		} else if meta.totalFiles != wantFiles || meta.snapSum != wantSum {
			return nil, fmt.Errorf("restart: %s: header disagrees with %s (mixed checkpoint generations): %w",
				p, paths[0], ErrCorrupt)
		}
	}
	if uint64(len(paths)) != wantFiles {
		return nil, fmt.Errorf("restart: %s: %d of %d restart files present: %w",
			dir, len(paths), wantFiles, ErrCorrupt)
	}
	if got := s.Checksum(); got != wantSum {
		return nil, fmt.Errorf("restart: %s: snapshot checksum %016x, recorded %016x: %w",
			dir, got, wantSum, ErrCorrupt)
	}
	return s, nil
}

// crcReader hashes everything read through it so the trailer check covers
// the exact bytes consumed.
type crcReader struct {
	r io.Reader
	h hash.Hash64
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.h.Write(p[:n])
	return n, err
}

func readFile(path string, s *Snapshot) (fileMeta, error) {
	f, err := os.Open(path)
	if err != nil {
		return fileMeta{}, err
	}
	defer f.Close()
	cr := &crcReader{r: f, h: crc64.New(crcTable)}
	var meta fileMeta
	get64 := func() (uint64, error) {
		var buf [8]byte
		if _, err := io.ReadFull(cr, buf[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				err = fmt.Errorf("truncated: %w", ErrCorrupt)
			}
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	m, err := get64()
	if err != nil {
		return meta, err
	}
	if m != magic {
		return meta, fmt.Errorf("bad magic %x: %w", m, ErrCorrupt)
	}
	if meta.totalFiles, err = get64(); err != nil {
		return meta, err
	}
	if meta.snapSum, err = get64(); err != nil {
		return meta, err
	}
	nf, err := get64()
	if err != nil {
		return meta, err
	}
	fields := make(map[string][]float64, nf)
	for i := uint64(0); i < nf; i++ {
		nameLen, err := get64()
		if err != nil {
			return meta, err
		}
		if nameLen > 1<<16 {
			return meta, fmt.Errorf("implausible field-name length %d: %w", nameLen, ErrCorrupt)
		}
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(cr, nameBuf); err != nil {
			return meta, fmt.Errorf("truncated field name: %w", ErrCorrupt)
		}
		dataLen, err := get64()
		if err != nil {
			return meta, err
		}
		if dataLen > 1<<28 {
			return meta, fmt.Errorf("implausible field length %d: %w", dataLen, ErrCorrupt)
		}
		buf := make([]byte, 8*dataLen)
		if _, err := io.ReadFull(cr, buf); err != nil {
			return meta, fmt.Errorf("truncated field %q: %w", nameBuf, ErrCorrupt)
		}
		data := make([]float64, dataLen)
		for j := range data {
			data[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*j:]))
		}
		fields[string(nameBuf)] = data
	}
	want := cr.h.Sum64()
	var trailer [8]byte
	if _, err := io.ReadFull(f, trailer[:]); err != nil {
		return meta, fmt.Errorf("missing CRC trailer: %w", ErrCorrupt)
	}
	if got := binary.LittleEndian.Uint64(trailer[:]); got != want {
		return meta, fmt.Errorf("file CRC %016x, computed %016x: %w", got, want, ErrCorrupt)
	}
	// Only merge validated fields into the snapshot.
	for name, data := range fields {
		s.Fields[name] = data
	}
	return meta, nil
}
