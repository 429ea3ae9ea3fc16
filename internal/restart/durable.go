// Durable checkpoint generations: the process-death-proof layer on top of
// the multi-file restart format. A Store owns a root directory holding
// numbered generation subdirectories (gen_00000001, gen_00000002, ...);
// each generation is the multi-file snapshot plus a MANIFEST that records
// what a complete generation looks like (sequence number, coupling window,
// shard count, whole-snapshot checksum, payload bytes) under its own
// CRC64. Every file follows write temp → fsync → rename, the manifest is
// written last, and the directory is fsynced after each rename — so a
// SIGKILL at ANY instant leaves the disk in one of exactly two states:
// the new generation fully published, or the previous generations intact
// with at most unreferenced debris. LoadNewest walks generations newest
// first and returns the first one that validates end to end, reporting
// every rejected generation and why; WriteAsync overlaps the disk work
// with the next coupling window on a single join-before-reuse goroutine.
package restart

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ErrNoCheckpoint reports a store root with no checkpoint generations at
// all — distinct from ErrCorrupt (generations exist but none validates)
// so callers can tell "nothing to resume" from "resume data destroyed".
var ErrNoCheckpoint = errors.New("restart: no checkpoint generations")

// killHook, when non-nil, is invoked at named durability barriers inside
// the write protocol ("shard-temp", "manifest-temp", "manifest-published")
// so the crash harness (internal/fault, esmrun -crash-at) can SIGKILL the
// process with a torn write genuinely in flight. Production runs leave it
// nil: one predictable branch per barrier.
var killHook func(site string)

// SetKillHook installs f as the durability-barrier hook; nil detaches.
// Not safe to call while writes are in flight.
func SetKillHook(f func(site string)) { killHook = f }

func killpoint(site string) {
	if killHook != nil {
		killHook(site)
	}
}

// manifestName is the per-generation manifest file.
const manifestName = "MANIFEST"

// genPrefix names generation subdirectories gen_<seq>.
const genPrefix = "gen_"

// GenMeta is the validated content of one generation's manifest.
type GenMeta struct {
	Seq    uint64 // monotonic generation sequence number
	Window int    // coupling window whose pre-step state this holds
	NFiles int    // shard count the writer produced
	Sum    uint64 // whole-snapshot checksum (Snapshot.Checksum)
	Bytes  int64  // payload bytes across all shards
}

// RejectedGen records one generation that failed validation during
// LoadNewest, and why.
type RejectedGen struct {
	Seq    uint64 `json:"seq"`
	Dir    string `json:"dir"`
	Reason string `json:"reason"`
}

// NoValidGenerationError reports that every checkpoint generation in the
// store failed validation. It wraps ErrCorrupt and lists each rejected
// generation with its reason.
type NoValidGenerationError struct {
	Root     string
	Rejected []RejectedGen
}

func (e *NoValidGenerationError) Error() string {
	parts := make([]string, len(e.Rejected))
	for i, r := range e.Rejected {
		parts[i] = fmt.Sprintf("gen %d: %s", r.Seq, r.Reason)
	}
	return fmt.Sprintf("restart: no valid checkpoint generation in %s (%s)",
		e.Root, strings.Join(parts, "; "))
}

func (e *NoValidGenerationError) Unwrap() error { return ErrCorrupt }

// Store manages durable checkpoint generations under one root directory.
// Methods are NOT safe for concurrent use from multiple goroutines; the
// async writer is internal and joined through Wait before any state is
// reused (the supervisor calls Wait before every Write, LoadNewest and at
// run end).
type Store struct {
	root   string
	retain int
	seq    uint64 // highest sequence number ever assigned

	inflight chan AsyncResult // nil when no async write is pending
}

// AsyncResult is the outcome of one WriteAsync, delivered by Wait.
type AsyncResult struct {
	Dir    string
	Window int
	Bytes  int64
	Err    error
}

// OpenStore opens (creating if needed) a durable store at root, retaining
// the newest retain generations (minimum and default 2: losing the newest
// to a torn write must always leave an intact predecessor). Existing
// generation directories are scanned so sequence numbers keep rising
// across process restarts — a resumed run never reuses a directory name a
// dead writer might have left debris in.
func OpenStore(root string, retain int) (*Store, error) {
	if retain < 2 {
		retain = 2
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	st := &Store{root: root, retain: retain}
	for _, g := range st.scan() {
		if g.seq > st.seq {
			st.seq = g.seq
		}
	}
	return st, nil
}

// Root returns the store's root directory.
func (st *Store) Root() string { return st.root }

// genDir is one on-disk generation directory (manifest not yet read).
type genDir struct {
	seq uint64
	dir string
}

// scan lists generation directories, newest (highest seq) first.
func (st *Store) scan() []genDir {
	entries, err := os.ReadDir(st.root)
	if err != nil {
		return nil
	}
	var gens []genDir
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), genPrefix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimPrefix(e.Name(), genPrefix), 10, 64)
		if err != nil {
			continue
		}
		gens = append(gens, genDir{seq: seq, dir: filepath.Join(st.root, e.Name())})
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].seq > gens[j].seq })
	return gens
}

// Write persists the snapshot as the next generation: shards (fsynced,
// write-then-rename), then the manifest (same protocol), then a directory
// fsync to pin the renames, then GC of generations beyond the retention
// window. The generation is durable — will be found by a future
// LoadNewest in another process — only once the manifest rename lands;
// a crash anywhere before that leaves the previous generations untouched.
// Returns the payload bytes written and the generation directory.
func (st *Store) Write(s *Snapshot, window, nfiles int) (int64, string, error) {
	if err := st.Wait(); err != nil {
		return 0, "", err
	}
	return st.write(s, window, nfiles)
}

func (st *Store) write(s *Snapshot, window, nfiles int) (int64, string, error) {
	t0 := tk.Start()
	st.seq++
	dir := filepath.Join(st.root, fmt.Sprintf("%s%08d", genPrefix, st.seq))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, "", err
	}
	n, nshards, sum, err := writeMulti(s, dir, nfiles, true)
	if err != nil {
		return n, dir, err
	}
	meta := GenMeta{Seq: st.seq, Window: window, NFiles: nshards, Sum: sum, Bytes: n}
	if err := writeManifest(dir, meta); err != nil {
		return n, dir, err
	}
	if err := syncDir(dir); err != nil {
		return n, dir, err
	}
	if err := syncDir(st.root); err != nil {
		return n, dir, err
	}
	killpoint("manifest-published")
	st.gc()
	tk.EndArg("restart:durable-write", t0, "bytes", n)
	tk.Counter("durable_ckpt_writes").Add(1)
	tk.Counter("durable_ckpt_bytes").Add(n)
	return n, dir, nil
}

// WriteAsync persists the snapshot as the next generation on a background
// goroutine, overlapping the fsync-heavy disk work with the caller's next
// coupling window. The snapshot must not be mutated until Wait returns
// (pass a Snapshot.Clone when the live state keeps stepping). At most one
// write is in flight: a second WriteAsync joins the first internally.
func (st *Store) WriteAsync(s *Snapshot, window, nfiles int) {
	if err := st.Wait(); err != nil {
		// The joined write's error was consumed here; re-deliver it so the
		// caller's next Wait still sees it instead of it vanishing.
		ch := make(chan AsyncResult, 1)
		ch <- AsyncResult{Err: err}
		st.inflight = ch
		return
	}
	ch := make(chan AsyncResult, 1)
	st.inflight = ch
	go func() {
		n, dir, err := st.write(s, window, nfiles)
		ch <- AsyncResult{Dir: dir, Window: window, Bytes: n, Err: err}
	}()
}

// Wait joins the in-flight async write, if any, and returns its error.
// The completed write's details are available through WaitResult when the
// caller needs them (the supervisor fires its AfterCheckpoint hook from
// there). Wait is idempotent: with nothing in flight it returns nil.
func (st *Store) Wait() error {
	res := st.WaitResult()
	return res.Err
}

// WaitResult joins the in-flight async write and returns its full result;
// the zero AsyncResult when nothing is pending.
func (st *Store) WaitResult() AsyncResult {
	if st.inflight == nil {
		return AsyncResult{}
	}
	res := <-st.inflight
	st.inflight = nil
	return res
}

// gc removes generation directories beyond the retention window. Torn
// directories (no valid manifest) count toward nothing but are removed
// once their sequence number falls out of the newest retain.
func (st *Store) gc() {
	gens := st.scan()
	for i, g := range gens {
		if i >= st.retain {
			os.RemoveAll(g.dir)
		}
	}
}

// LoadNewest returns the snapshot of the newest generation that validates
// end to end: manifest present with a matching CRC and sequence number,
// every shard present and CRC-clean, and the reassembled snapshot's
// checksum equal to the one the manifest recorded. Generations that fail
// are removed from disk (they can never be restored from) and reported in
// the rejected list so callers can log what was lost and why. With no
// generation left the error wraps ErrCorrupt (all rejected) or is
// ErrNoCheckpoint (store empty).
func (st *Store) LoadNewest() (*Snapshot, GenMeta, []RejectedGen, error) {
	if err := st.Wait(); err != nil {
		return nil, GenMeta{}, nil, err
	}
	t0 := tk.Start()
	gens := st.scan()
	if len(gens) == 0 {
		return nil, GenMeta{}, nil, fmt.Errorf("%w in %s", ErrNoCheckpoint, st.root)
	}
	var rejected []RejectedGen
	for _, g := range gens {
		snap, meta, err := loadGen(g)
		if err != nil {
			if errors.Is(err, ErrCorrupt) {
				rejected = append(rejected, RejectedGen{Seq: g.seq, Dir: g.dir, Reason: err.Error()})
				os.RemoveAll(g.dir)
				continue
			}
			return nil, GenMeta{}, rejected, err
		}
		tk.EndArg("restart:durable-read", t0, "bytes", meta.Bytes)
		return snap, meta, rejected, nil
	}
	return nil, GenMeta{}, rejected, &NoValidGenerationError{Root: st.root, Rejected: rejected}
}

// loadGen validates and reads one generation.
func loadGen(g genDir) (*Snapshot, GenMeta, error) {
	meta, err := readManifest(filepath.Join(g.dir, manifestName))
	if err != nil {
		return nil, meta, err
	}
	if meta.Seq != g.seq {
		return nil, meta, fmt.Errorf("restart: manifest seq %d in directory gen_%08d: %w",
			meta.Seq, g.seq, ErrCorrupt)
	}
	paths, err := filepath.Glob(filepath.Join(g.dir, "restart_*.bin"))
	if err != nil {
		return nil, meta, err
	}
	if len(paths) != meta.NFiles {
		return nil, meta, fmt.Errorf("restart: %d of %d shards present: %w",
			len(paths), meta.NFiles, ErrCorrupt)
	}
	snap, got, err := readMulti(g.dir)
	if err != nil {
		return nil, meta, err
	}
	if got != meta.Sum {
		return nil, meta, fmt.Errorf("restart: snapshot checksum %016x, manifest records %016x: %w",
			got, meta.Sum, ErrCorrupt)
	}
	return snap, meta, nil
}

// encodeManifest renders the manifest: a small text record whose last
// line is a CRC64 over every preceding byte.
func encodeManifest(m GenMeta) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "icoearth-manifest v1\n")
	fmt.Fprintf(&b, "seq %d\n", m.Seq)
	fmt.Fprintf(&b, "window %d\n", m.Window)
	fmt.Fprintf(&b, "files %d\n", m.NFiles)
	fmt.Fprintf(&b, "snapsum %016x\n", m.Sum)
	fmt.Fprintf(&b, "bytes %d\n", m.Bytes)
	fmt.Fprintf(&b, "crc %016x\n", crc64.Checksum(b.Bytes(), crcTable))
	return b.Bytes()
}

// writeManifest emits the generation manifest with the same temp → fsync
// → rename protocol as the shards. It goes last: its rename is the commit
// point that makes the generation exist.
func writeManifest(dir string, m GenMeta) error {
	path := filepath.Join(dir, manifestName)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(encodeManifest(m))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		killpoint("manifest-temp")
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// readManifest parses and validates a manifest; every defect wraps
// ErrCorrupt with the reason.
func readManifest(path string) (GenMeta, error) {
	var m GenMeta
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return m, fmt.Errorf("restart: manifest missing: %w", ErrCorrupt)
		}
		return m, err
	}
	i := bytes.LastIndex(raw, []byte("\ncrc "))
	if i < 0 {
		return m, fmt.Errorf("restart: manifest has no crc line: %w", ErrCorrupt)
	}
	body, crcLine := raw[:i+1], strings.TrimSpace(string(raw[i+1:]))
	want, err := strconv.ParseUint(strings.TrimPrefix(crcLine, "crc "), 16, 64)
	if err != nil {
		return m, fmt.Errorf("restart: manifest crc line %q: %w", crcLine, ErrCorrupt)
	}
	if got := crc64.Checksum(body, crcTable); got != want {
		return m, fmt.Errorf("restart: manifest crc %016x, recorded %016x: %w", got, want, ErrCorrupt)
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) < 1 || lines[0] != "icoearth-manifest v1" {
		return m, fmt.Errorf("restart: manifest version line %q: %w", lines[0], ErrCorrupt)
	}
	for _, line := range lines[1:] {
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			return m, fmt.Errorf("restart: manifest line %q: %w", line, ErrCorrupt)
		}
		switch key {
		case "seq":
			m.Seq, err = strconv.ParseUint(val, 10, 64)
		case "window":
			m.Window, err = strconv.Atoi(val)
		case "files":
			m.NFiles, err = strconv.Atoi(val)
		case "snapsum":
			m.Sum, err = strconv.ParseUint(val, 16, 64)
		case "bytes":
			m.Bytes, err = strconv.ParseInt(val, 10, 64)
		default:
			err = fmt.Errorf("unknown key")
		}
		if err != nil {
			return m, fmt.Errorf("restart: manifest line %q: %w", line, ErrCorrupt)
		}
	}
	// Only what the writer can have written is a manifest: a missing,
	// repeated or reordered key, or another spelling of a value, is damage
	// the CRC happened to survive.
	if !bytes.Equal(encodeManifest(m), raw) {
		return m, fmt.Errorf("restart: manifest is not in the writer's form: %w", ErrCorrupt)
	}
	return m, nil
}

// syncDir fsyncs a directory so renames inside it are on stable storage.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
