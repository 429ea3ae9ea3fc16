// The transport seam: what a Comm needs from the substrate under it — a
// per-pair FIFO link to every other rank that surfaces a dead peer as an
// error — the chanTransport World hands its goroutine ranks, and
// Connect/RunTransport for a process's rank of the socket subpackage's mesh.

package par

import (
	"fmt"
	"time"
)

// Transport moves framed float64 payloads between a fixed set of ranks.
// Implementations must preserve per-(sender,receiver) FIFO order — the
// property Comm's tag matching and pending buffering assume — and must
// surface dead peers and expired deadlines as errors wrapping
// ErrRankLost so the fault layer treats a lost process exactly like a
// lost goroutine rank.
type Transport interface {
	// NRanks returns the world size; Rank this process's rank.
	NRanks() int
	Rank() int
	// Send delivers data to rank to with the given tag. The transport may
	// hold on to data until the receiver has consumed it — the channel
	// transport delivers the very slice — so the caller must not write to
	// it before then; a transport that serialises (the socket) is done
	// with it when Send returns.
	Send(to, tag int, data []float64) error
	// Recv returns the next message from rank from in arrival order,
	// whatever its tag (the Comm layer does tag matching). timeout <= 0
	// blocks until a message arrives or the peer is lost.
	Recv(from int, timeout time.Duration) (tag int, data []float64, err error)
	// Close releases the transport's resources. Peers blocked on this
	// rank afterwards observe it as lost.
	Close() error
}

// Connect wraps a Transport into this process's rank handle: the same
// Comm, with the same deterministic semantics, that World.Run hands a
// goroutine rank.
func Connect(t Transport) *Comm {
	return &Comm{tp: t, n: t.NRanks(), Rank: t.Rank(), pending: make(map[int][]message)}
}

// RunTransport executes body as this process's rank of the transport's
// world, converting rank aborts (lost peers, expired deadlines) into an
// error exactly like World.RunErr does for goroutine ranks. Other panics
// propagate unchanged.
func RunTransport(t Transport, body func(c *Comm)) error {
	bug, err := runRank(Connect(t), body)
	if bug != nil {
		panic(bug)
	}
	return err
}

// chanTransport is one goroutine rank's end of a World: a buffered
// channel per ordered pair, payloads passed by reference. A blocked
// operation also waits on the world's lost-rank signal, so the death of
// any rank fails it instead of hanging it.
type chanTransport struct {
	w     *World
	rank  int
	timer *time.Timer // bounds a Recv that has to wait; re-armed, never reallocated
}

func (t *chanTransport) NRanks() int  { return t.w.N }
func (t *chanTransport) Rank() int    { return t.rank }
func (t *chanTransport) Close() error { return nil }

// Send queues the frame in the receiver's inbox. Room in the inbox wins
// whatever the state of the world, so the outcome never depends on which
// select arm the runtime picks; only a full inbox waits, and a lost rank
// ends that wait (its inbox will never drain).
func (t *chanTransport) Send(to, tag int, data []float64) error {
	inbox, m := t.w.chans[t.rank][to], message{tag: tag, data: data}
	select {
	case inbox <- m:
		return nil
	default:
	}
	select {
	case inbox <- m:
		return nil
	case <-t.w.lostCh:
		return fmt.Errorf("inbox of rank %d is full: %w", to, ErrRankLost)
	}
}

// Recv takes the next frame from the sender's channel. A queued frame is
// returned without arming the timer, and still returned after a rank has
// been lost: in-flight data outlives its sender. A wait re-arms the rank's
// one timer, so what a Recv allocates does not follow goroutine timing.
func (t *chanTransport) Recv(from int, timeout time.Duration) (int, []float64, error) {
	inbox := t.w.chans[from][t.rank]
	select {
	case m := <-inbox:
		return m.tag, m.data, nil
	default:
	}
	var expired <-chan time.Time
	if timeout > 0 {
		if t.timer == nil {
			t.timer = time.NewTimer(timeout)
		}
		t.timer.Reset(timeout)
		defer t.timer.Stop()
		expired = t.timer.C
	}
	select {
	case m := <-inbox:
		return m.tag, m.data, nil
	case <-expired:
		return 0, nil, fmt.Errorf("timed out after %v: %w", timeout, ErrRankLost)
	case <-t.w.lostCh:
	}
	select {
	case m := <-inbox:
		return m.tag, m.data, nil
	default:
		return 0, nil, ErrRankLost
	}
}
