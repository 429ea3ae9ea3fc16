// Package socket is the multi-process par.Transport: ranks are OS
// processes connected by a full mesh of unix-domain stream sockets.
// Messages travel as length-prefixed frames
//
//	[tag int32][n int32][n × 8-byte little-endian float64]
//
// writes on a pair are serialised under a per-connection mutex and SOCK_
// STREAM preserves byte order, so the per-(sender,receiver) FIFO
// property par.Comm's tag matching assumes holds on the wire exactly as
// it does on a World's channels. A dead peer (EOF, write error) or
// an expired receive deadline surfaces as an error wrapping
// par.ErrRankLost, so the fault layer treats a lost process exactly like
// a lost goroutine rank.
package socket

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"icoearth/internal/par"
	"icoearth/internal/trace"
)

// helloMagic prefixes the 8-byte hello a dialing rank sends to identify
// itself; it guards against a stray process connecting to the mesh.
const helloMagic = 0x69636f65 // "icoe"

// maxFrameFloats bounds a frame's payload (64 MiB of float64s): a length
// beyond it means a corrupt or misframed stream, not a real message.
const maxFrameFloats = 8 << 20

// readChunk is the most readFrame allocates on a header's word alone.
const readChunk = 64 << 10

// frame is one decoded wire message.
type frame struct {
	tag  int32
	data []float64
}

// peer is one mesh connection: a serialised writer plus a reader
// goroutine demultiplexing inbound frames into an inbox channel. The
// inbox is closed when the connection dies, which every pending and
// future Recv observes as a lost rank.
type peer struct {
	conn  net.Conn
	wmu   sync.Mutex
	wbuf  []byte
	inbox chan frame
	timer *time.Timer // bounds a Recv that has to wait; re-armed, never reallocated
}

// WireStats is a snapshot of one rank's socket traffic.
type WireStats struct {
	FramesSent, BytesSent   int64
	FramesRecvd, BytesRecvd int64
}

// Transport implements par.Transport over a unix-socket mesh.
type Transport struct {
	rank, n int
	ln      net.Listener
	sock    string
	peers   []*peer

	framesSent, bytesSent   atomic.Int64
	framesRecvd, bytesRecvd atomic.Int64

	// Optional per-rank wire counters on a trace track (nil-safe).
	ctrFramesSent, ctrBytesSent   *trace.Counter
	ctrFramesRecvd, ctrBytesRecvd *trace.Counter
}

// SockPath returns rank r's listening socket path inside dir.
func SockPath(dir string, r int) string {
	return filepath.Join(dir, fmt.Sprintf("rank-%d.sock", r))
}

// New joins rank into the n-rank mesh rooted at dir: it listens on its
// own socket, accepts one connection from every higher rank, and dials
// every lower rank (retrying until the peer's socket appears). timeout
// bounds the whole mesh formation; a rank that cannot form its mesh in
// time reports which peer is missing.
func New(dir string, rank, n int, timeout time.Duration) (*Transport, error) {
	if n < 1 || rank < 0 || rank >= n {
		return nil, fmt.Errorf("socket: invalid rank %d of %d", rank, n)
	}
	t := &Transport{rank: rank, n: n, peers: make([]*peer, n), sock: SockPath(dir, rank)}
	if n == 1 {
		return t, nil
	}
	ln, err := net.Listen("unix", t.sock)
	if err != nil {
		return nil, fmt.Errorf("socket: rank %d listen: %w", rank, err)
	}
	t.ln = ln
	deadline := time.Now().Add(timeout)
	// Accept from higher ranks concurrently with dialing lower ranks —
	// both directions must progress at once or two middle ranks deadlock
	// waiting on each other.
	accepted := make(chan error, 1)
	go func() { accepted <- t.acceptHigher(deadline) }()
	dialErr := t.dialLower(dir, deadline)
	acceptErr := <-accepted
	if dialErr != nil || acceptErr != nil {
		t.Close()
		if dialErr != nil {
			return nil, dialErr
		}
		return nil, acceptErr
	}
	for r, p := range t.peers {
		if p != nil {
			go t.readLoop(r, p)
		}
	}
	return t, nil
}

// acceptHigher accepts one connection from each rank above ours,
// identified by the hello frame [helloMagic uint32][rank int32].
func (t *Transport) acceptHigher(deadline time.Time) error {
	for i := 0; i < t.n-1-t.rank; i++ {
		if ul, ok := t.ln.(*net.UnixListener); ok {
			if err := ul.SetDeadline(deadline); err != nil {
				return fmt.Errorf("socket: rank %d listener deadline: %w", t.rank, err)
			}
		}
		conn, err := t.ln.Accept()
		if err != nil {
			return fmt.Errorf("socket: rank %d waiting for %d more peers: %w", t.rank, t.n-1-t.rank-i, err)
		}
		var hello [8]byte
		if err := conn.SetReadDeadline(deadline); err == nil {
			_, err = io.ReadFull(conn, hello[:])
		}
		if err != nil {
			conn.Close()
			return fmt.Errorf("socket: rank %d hello read: %w", t.rank, err)
		}
		magic := binary.LittleEndian.Uint32(hello[0:4])
		from := int(int32(binary.LittleEndian.Uint32(hello[4:8])))
		if magic != helloMagic || from <= t.rank || from >= t.n || t.peers[from] != nil {
			conn.Close()
			return fmt.Errorf("socket: rank %d got bad hello (magic %#x, rank %d)", t.rank, magic, from)
		}
		if err := conn.SetReadDeadline(time.Time{}); err != nil {
			conn.Close()
			return fmt.Errorf("socket: rank %d clear deadline: %w", t.rank, err)
		}
		t.peers[from] = &peer{conn: conn, inbox: make(chan frame, 128)}
	}
	return nil
}

// dialLower connects to each rank below ours, retrying while the peer's
// socket file has not appeared yet (ranks start in parallel), and sends
// the identifying hello.
func (t *Transport) dialLower(dir string, deadline time.Time) error {
	for r := 0; r < t.rank; r++ {
		var conn net.Conn
		for {
			c, err := net.Dial("unix", SockPath(dir, r))
			if err == nil {
				conn = c
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("socket: rank %d dial rank %d: %w", t.rank, r, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
		var hello [8]byte
		binary.LittleEndian.PutUint32(hello[0:4], helloMagic)
		binary.LittleEndian.PutUint32(hello[4:8], uint32(int32(t.rank)))
		if _, err := conn.Write(hello[:]); err != nil {
			conn.Close()
			return fmt.Errorf("socket: rank %d hello to rank %d: %w", t.rank, r, err)
		}
		t.peers[r] = &peer{conn: conn, inbox: make(chan frame, 128)}
	}
	return nil
}

// readLoop decodes frames from one peer into its inbox until the
// connection dies, then closes the inbox so receivers observe the rank
// as lost. Backpressure: a full inbox blocks the loop, which fills the
// kernel socket buffer, which eventually blocks the sender — the wire
// analogue of the channel transport's bounded inboxes.
func (t *Transport) readLoop(from int, p *peer) {
	defer close(p.inbox)
	var raw []byte
	for {
		f, err := readFrame(p.conn, &raw)
		if err != nil {
			return
		}
		t.framesRecvd.Add(1)
		t.bytesRecvd.Add(int64(8 * len(f.data)))
		t.ctrFramesRecvd.Add(1)
		t.ctrBytesRecvd.Add(int64(8 * len(f.data)))
		p.inbox <- f
	}
}

// readFrame decodes the next frame from r, reading through *scratch (kept
// between calls). The header is the peer's claim, not yet backed by a byte:
// the buffer grows by at most readChunk or what has already arrived,
// whichever is more, and the payload slice is made once the payload is in,
// so a corrupt length costs a small multiple of the bytes that follow it.
func readFrame(r io.Reader, scratch *[]byte) (frame, error) {
	buf := slices.Grow((*scratch)[:0], 8)[:8]
	if _, err := io.ReadFull(r, buf); err != nil {
		return frame{}, err
	}
	tag := int32(binary.LittleEndian.Uint32(buf[0:4]))
	count := int(int32(binary.LittleEndian.Uint32(buf[4:8])))
	if count < 0 || count > maxFrameFloats {
		return frame{}, fmt.Errorf("socket: frame header names %d values", count)
	}
	buf = buf[:0]
	for len(buf) < 8*count {
		n := min(8*count-len(buf), max(readChunk, len(buf)))
		buf = slices.Grow(buf, n)[:len(buf)+n]
		if _, err := io.ReadFull(r, buf[len(buf)-n:]); err != nil {
			return frame{}, err
		}
	}
	*scratch = buf
	data := make([]float64, count)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return frame{tag: tag, data: data}, nil
}

// NRanks returns the mesh size; Rank this process's rank.
func (t *Transport) NRanks() int { return t.n }

// Rank returns this process's rank.
func (t *Transport) Rank() int { return t.rank }

// Send frames and writes data to rank to. The per-connection mutex keeps
// concurrent sends to one peer whole and in order.
func (t *Transport) Send(to, tag int, data []float64) error {
	if to < 0 || to >= t.n || to == t.rank {
		return fmt.Errorf("socket: send to invalid rank %d", to)
	}
	p := t.peers[to]
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.wbuf = appendFrame(p.wbuf[:0], tag, data)
	if _, err := p.conn.Write(p.wbuf); err != nil {
		return fmt.Errorf("socket: send to rank %d: %v: %w", to, err, par.ErrRankLost)
	}
	t.framesSent.Add(1)
	t.bytesSent.Add(int64(8 * len(data)))
	t.ctrFramesSent.Add(1)
	t.ctrBytesSent.Add(int64(8 * len(data)))
	return nil
}

// appendFrame appends the wire form of one frame to b.
func appendFrame(b []byte, tag int, data []float64) []byte {
	b = slices.Grow(b, 8+8*len(data))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(tag)))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(len(data))))
	for _, v := range data {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// Recv returns the next frame from rank from in arrival order. timeout
// <= 0 blocks until a frame arrives or the peer is lost. A wait re-arms the
// peer's one timer (a rank receives on its own goroutine only), so what a
// Recv allocates does not follow wire timing.
func (t *Transport) Recv(from int, timeout time.Duration) (int, []float64, error) {
	if from < 0 || from >= t.n || from == t.rank {
		return 0, nil, fmt.Errorf("socket: recv from invalid rank %d", from)
	}
	p := t.peers[from]
	var f frame
	var ok bool
	select {
	case f, ok = <-p.inbox:
	default:
		var expired <-chan time.Time
		if timeout > 0 {
			if p.timer == nil {
				p.timer = time.NewTimer(timeout)
			}
			p.timer.Reset(timeout)
			defer p.timer.Stop()
			expired = p.timer.C
		}
		select {
		case f, ok = <-p.inbox:
		case <-expired:
			return 0, nil, fmt.Errorf("socket: recv from rank %d timed out after %v: %w", from, timeout, par.ErrRankLost)
		}
	}
	if !ok {
		return 0, nil, fmt.Errorf("socket: rank %d connection lost: %w", from, par.ErrRankLost)
	}
	return int(f.tag), f.data, nil
}

// Close tears the mesh down: peers still blocked on this rank observe it
// as lost. Call only after the application's final synchronisation.
func (t *Transport) Close() error {
	for _, p := range t.peers {
		if p != nil {
			p.conn.Close()
		}
	}
	if t.ln != nil {
		t.ln.Close()
		os.Remove(t.sock)
	}
	return nil
}

// AttachTrace mirrors the wire counters onto a trace track ("wire_*"),
// giving per-rank sent/received frame and byte series alongside the
// par-level counters.
func (t *Transport) AttachTrace(tk *trace.Track) {
	t.ctrFramesSent = tk.Counter("wire_frames_sent")
	t.ctrBytesSent = tk.Counter("wire_bytes_sent")
	t.ctrFramesRecvd = tk.Counter("wire_frames_recvd")
	t.ctrBytesRecvd = tk.Counter("wire_bytes_recvd")
}

// Wire returns a snapshot of this rank's socket traffic.
func (t *Transport) Wire() WireStats {
	return WireStats{
		FramesSent:  t.framesSent.Load(),
		BytesSent:   t.bytesSent.Load(),
		FramesRecvd: t.framesRecvd.Load(),
		BytesRecvd:  t.bytesRecvd.Load(),
	}
}
