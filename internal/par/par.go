// Package par is the message-passing runtime of icoearth: the stand-in for
// ICON's MPI layer. A Comm is one rank's handle; it speaks to its peers
// through a Transport (transport.go) — buffered channels between the
// goroutine ranks of a World, a unix-socket mesh between OS processes —
// and every operation, point-to-point or collective, is the same message
// pattern on either: tag-matched frames over per-pair FIFO links, with
// rank 0 folding collective contributions in ascending rank order.
//
// Every operation also accumulates traffic statistics (message count,
// bytes, collective count) that the performance model converts into
// network time with the machine's α–β parameters, so the laptop run yields
// the communication volumes that drive the paper-scale projections.
package par

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"icoearth/internal/trace"
)

// ErrRankLost reports that a peer rank crashed or stopped responding
// within the configured deadline: the fault-tolerant analogue of an MPI
// process failure (ULFM's MPI_ERR_PROC_FAILED). Operations that cannot
// complete because of a lost rank either return an error wrapping
// ErrRankLost (the *Timeout variants) or abort the rank body with it
// (Send/Recv/Barrier and the other collectives), so World.Run always
// terminates instead of deadlocking.
var ErrRankLost = errors.New("par: rank lost")

// rankAbort carries an ErrRankLost-derived failure out of a rank body as a
// panic value; Run recognises it and reports it as an error rather than a
// programming bug.
type rankAbort struct{ err error }

// message is one point-to-point payload.
type message struct {
	tag  int
	data []float64
}

// MsgFate is a fault-injection hook's verdict on one outgoing message.
type MsgFate int

const (
	// DeliverMsg delivers the message normally.
	DeliverMsg MsgFate = iota
	// DropMsg silently discards the message (a lost packet).
	DropMsg
	// DelayMsg parks the message until the next send on the same ordered
	// rank pair, reordering it behind younger traffic. A parked message
	// with no follow-up traffic is never delivered (tail loss).
	DelayMsg
)

// MsgHook inspects every outgoing message — Send calls and halo buffers,
// not the frames collectives are built from — and decides its fate. Hooks
// are called on the sending rank's goroutine and must be safe for
// concurrent use from all ranks. A nil hook (the default) costs one
// predictable branch per send.
type MsgHook func(from, to, tag, n int) MsgFate

// World launches a fixed number of goroutine ranks, each with a Comm over
// a channel transport. It owns the channels and the lost-rank signal and
// nothing else: collectives are Comm's message patterns, not shared state.
type World struct {
	N     int
	chans [][]chan message // chans[from][to]

	// lostCh is closed when the first rank dies; every wait selects on it.
	lostCh   chan struct{}
	lostOnce sync.Once

	// What each rank's Comm starts from.
	deadline time.Duration
	hook     MsgHook
	tracer   *trace.Tracer

	comms []*Comm // the last Run's per-rank handles, for post-run stats
}

// NewWorld creates a communicator world with n ranks.
func NewWorld(n int) *World {
	if n < 1 {
		panic(fmt.Sprintf("par: invalid world size %d", n))
	}
	w := &World{N: n, lostCh: make(chan struct{}), chans: make([][]chan message, n)}
	for i := range w.chans {
		w.chans[i] = make([]chan message, n)
		for j := range w.chans[i] {
			// Capacity bounds the number of outstanding messages per
			// ordered pair; halo exchanges post at most a handful.
			w.chans[i][j] = make(chan message, 128)
		}
	}
	return w
}

// SetDeadline installs the bound every rank's blocking operations (Recv,
// Barrier, allreduce …) start from: an operation that waits longer for a
// frame aborts its rank with ErrRankLost instead of hanging forever. Zero
// (the default) disables the bound; a rank may change its own with
// Comm.SetDeadline. Must be set before Run.
func (w *World) SetDeadline(d time.Duration) { w.deadline = d }

// SetMsgHook installs a fault-injection hook on every send. Must be set
// before Run.
func (w *World) SetMsgHook(h MsgHook) { w.hook = h }

// SetTracer attaches a run tracer: each rank records its traffic onto a
// "par" track (counters mirroring Stats field-for-field, spans for
// collectives and halo exchanges). A nil tracer (the default) costs one
// predictable branch per recording point. Must be set before Run.
func (w *World) SetTracer(t *trace.Tracer) { w.tracer = t }

// Run spawns one goroutine per rank executing body and waits for all of
// them. Panics in rank bodies propagate after all ranks finish; a rank
// that dies marks itself lost so peers blocked on it unblock (with
// ErrRankLost) rather than deadlocking Run.
func (w *World) Run(body func(c *Comm)) {
	if err := w.RunErr(body); err != nil {
		panic(err.Error())
	}
}

// RunErr is Run with failures reported as an error instead of a panic:
// every rank body that panicked contributes one joined error, and aborts
// caused by lost peers satisfy errors.Is(err, ErrRankLost).
//
// Before returning, parked DelayMsg payloads that never got a follow-up
// send (tail loss) are drained into their sender's Stats.Dropped, so the
// invariant Msgs == Delivered + Dropped + Delayed holds with Delayed == 0
// on every completed run and no leaked payload goes unaccounted.
func (w *World) RunErr(body func(c *Comm)) error {
	var wg sync.WaitGroup
	errs := make([]error, w.N)
	w.comms = make([]*Comm, w.N)
	for r := 0; r < w.N; r++ {
		c := Connect(&chanTransport{w: w, rank: r})
		c.deadline, c.hook = w.deadline, w.hook
		if w.tracer != nil {
			c.attachTrace(w.tracer.Track("par", r))
		}
		w.comms[r] = c
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			bug, err := runRank(c, body)
			if bug != nil {
				err = fmt.Errorf("par: rank %d panicked: %v", c.Rank, bug)
			}
			if errs[c.Rank] = err; err != nil {
				// Wake any rank blocked on this one so Run returns.
				w.lostOnce.Do(func() { close(w.lostCh) })
			}
		}(c)
	}
	wg.Wait()
	for _, c := range w.comms {
		c.drainParked()
	}
	return errors.Join(errs...)
}

// runRank executes body as rank c and catches its panic: an abort caused
// by a lost peer or an expired deadline comes back as an error wrapping
// ErrRankLost, anything else as the bug it is.
func runRank(c *Comm, body func(c *Comm)) (bug any, err error) {
	defer func() {
		if p := recover(); p != nil {
			if a, ok := p.(rankAbort); ok {
				err = fmt.Errorf("par: rank %d: %w", c.Rank, a.err)
			} else {
				bug = p
			}
		}
	}()
	body(c)
	return nil, nil
}

// RankStats returns rank r's final Stats from the most recent Run/RunErr,
// including the end-of-run drain of parked messages (which a body-side
// read of c.Stats cannot see).
func (w *World) RankStats(r int) Stats {
	if w.comms == nil {
		return Stats{}
	}
	return w.comms[r].Stats
}

// TotalStats sums every rank's final Stats from the most recent Run.
func (w *World) TotalStats() Stats {
	var t Stats
	for _, c := range w.comms {
		t.Msgs += c.Stats.Msgs
		t.Delivered += c.Stats.Delivered
		t.BytesSent += c.Stats.BytesSent
		t.BytesRecvd += c.Stats.BytesRecvd
		t.Collectives += c.Stats.Collectives
		t.Dropped += c.Stats.Dropped
		t.Delayed += c.Stats.Delayed
	}
	return t
}

// Stats counts the traffic a rank generated, and means the same thing on
// every transport: point-to-point traffic — Send/Recv calls and halo
// buffers — is counted message by message; a collective, however many
// frames it is built from, counts once in Collectives and nowhere else.
// Accounting happens after the fault hook's fate resolution, so the
// delivered-traffic fields (Delivered, BytesSent) count only payloads that
// actually entered the transport — the volumes the α–β network model
// converts into time — and the invariant
//
//	Msgs == Delivered + Dropped + Delayed
//
// holds at every instant (Delayed being parked-and-not-yet-flushed).
type Stats struct {
	// Msgs counts Send calls and halo buffers (attempts), whatever their
	// fate.
	Msgs int64
	// Delivered counts messages that entered the transport: delivered
	// immediately, or parked and later flushed by follow-up traffic.
	Delivered int64
	// BytesSent counts payload bytes of Delivered messages only; dropped
	// and tail-lost payloads never inflate it.
	BytesSent int64
	// BytesRecvd counts payload bytes of messages returned to a Recv
	// caller on this rank (a parked message counts when it is finally
	// matched, not when it arrives). Dropped traffic appears in neither
	// direction, so sent and received volumes cross-check.
	BytesRecvd int64
	// Collectives counts Barrier, AllreduceVec, FoldSum(s), Gather and
	// Allgather calls.
	Collectives int64
	// Dropped counts DropMsg verdicts plus parked messages drained at Run
	// completion (tail loss). Delayed counts currently parked messages: a
	// flush moves one to Delivered, the end-of-run drain to Dropped.
	// All three are zero in production (no fault hook).
	Dropped int64
	Delayed int64
}

// Comm is one rank's handle into its world: every operation below is one
// implementation over c.tp, whichever Transport that is. A Comm belongs to
// its rank's goroutine and must be passed by pointer.
type Comm struct {
	Rank int
	tp   Transport
	n    int
	// deadline bounds the wait for each frame of a blocking operation
	// (0 = wait for the frame or a lost peer).
	deadline time.Duration
	// pending buffers messages received ahead of their Recv call, keyed by
	// sending rank.
	pending map[int][]message

	// Fault injection (nil hook in production): parked holds the DelayMsg
	// payload per destination rank.
	hook   MsgHook
	parked map[int]*message

	// foldOut carries a fold's answers from the root to its peers. The root
	// rewrites it only after every peer has contributed to the next fold,
	// which a peer does only after reading this one.
	foldOut []float64

	Stats Stats

	// Tracing (nil when the world has no tracer): counters mirror the
	// Stats fields exactly, so a trace cross-checks the accounting.
	track                                                   *trace.Track
	ctrMsgs, ctrDelivered, ctrBytes, ctrDropped, ctrDelayed *trace.Counter
	ctrColl, ctrBytesRecvd                                  *trace.Counter
}

// attachTrace resolves the rank's track and counter handles once, so the
// per-send path never does a name lookup.
func (c *Comm) attachTrace(tk *trace.Track) {
	c.track = tk
	c.ctrMsgs = tk.Counter("msgs")
	c.ctrDelivered = tk.Counter("delivered")
	c.ctrBytes = tk.Counter("bytes_sent")
	c.ctrDropped = tk.Counter("dropped")
	c.ctrDelayed = tk.Counter("delayed")
	c.ctrColl = tk.Counter("collectives")
	c.ctrBytesRecvd = tk.Counter("bytes_recvd")
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.n }

// SetDeadline bounds every blocking operation of this rank: an operation
// that waits longer than d for a frame aborts with an error wrapping
// ErrRankLost. Zero disables the bound. Ranks of a World start from
// World.SetDeadline's value.
func (c *Comm) SetDeadline(d time.Duration) { c.deadline = d }

// checkPeer panics on a rank outside the world: a bug in the caller, not a
// fault of the run.
func (c *Comm) checkPeer(op string, r int) {
	if r < 0 || r >= c.n {
		panic(fmt.Sprintf("par: %s invalid rank %d", op, r))
	}
}

// Send delivers data to rank `to` with the given tag. The data slice is
// copied, so the caller may reuse it immediately. A transport that can no
// longer reach the peer aborts the rank with ErrRankLost.
func (c *Comm) Send(to, tag int, data []float64) {
	c.post(to, tag, slices.Clone(data))
}

// post hands the transport a buffer the caller will not write while a
// receiver may read it (Send's copy, a packed halo buffer — see
// HaloExchanger.bufs). It is the one place the fault hook sees
// traffic and the one place point-to-point traffic is counted, after the
// hook's verdict: Msgs counts the attempt, Delivered/BytesSent only a
// payload that entered the transport, so dropped and parked messages never
// inflate the volumes the α–β model consumes.
func (c *Comm) post(to, tag int, data []float64) {
	c.checkPeer("send to", to)
	c.Stats.Msgs++
	c.ctrMsgs.Add(1)
	m := message{tag: tag, data: data}
	if c.hook != nil {
		switch c.hook(c.Rank, to, tag, len(data)) {
		case DropMsg:
			c.Stats.Dropped++
			c.ctrDropped.Add(1)
			c.track.InstantArg("msg:drop", "to", int64(to))
			return
		case DelayMsg:
			c.park(to, m)
			c.Stats.Delayed++
			c.ctrDelayed.Add(1)
			c.track.InstantArg("msg:delay", "to", int64(to))
			return
		}
		// A normally-delivered message flushes any parked predecessor
		// after itself, realising the reorder; the flushed message is
		// delivered traffic from this point on.
		parked := c.parked[to]
		delete(c.parked, to)
		c.deliver(to, m)
		if parked != nil {
			c.Stats.Delayed--
			c.ctrDelayed.Add(-1)
			c.deliver(to, *parked)
		}
		return
	}
	c.deliver(to, m)
}

// park holds a DelayMsg payload until the next send to the same rank
// (reordering), or forever (tail loss, drained at Run completion).
// The copy to the heap happens here, in its own frame, so the address-of
// does not force post's message to escape on the hook-free fast path.
func (c *Comm) park(to int, m message) {
	if c.parked == nil {
		c.parked = make(map[int]*message)
	}
	c.parked[to] = &m
}

// drainParked accounts parked messages that never got a follow-up send:
// they were never delivered, so they move from Delayed to Dropped. Runs
// after the rank has finished, in ascending destination order so the
// emitted trace instants — part of the run's reproducible observable
// output — do not inherit map iteration order.
func (c *Comm) drainParked() {
	tos := make([]int, 0, len(c.parked))
	for to := range c.parked {
		tos = append(tos, to)
	}
	sort.Ints(tos)
	for _, to := range tos {
		c.Stats.Delayed--
		c.Stats.Dropped++
		c.ctrDelayed.Add(-1)
		c.ctrDropped.Add(1)
		c.track.InstantArg("msg:tail-loss", "to", int64(to))
	}
}

// deliver places one message into the transport and accounts it as
// delivered traffic.
func (c *Comm) deliver(to int, m message) {
	c.wire(to, m.tag, m.data)
	c.Stats.Delivered++
	c.Stats.BytesSent += int64(8 * len(m.data))
	c.ctrDelivered.Add(1)
	c.ctrBytes.Add(int64(8 * len(m.data)))
}

// wire puts one frame on the transport, uncounted: the frames of a
// collective go through here directly. Per the Transport contract the
// receiver may see data itself, so the caller either gives the buffer up
// or — lending it — does not write it until the receiver has answered.
func (c *Comm) wire(to, tag int, data []float64) {
	c.checkPeer("send to", to)
	if err := c.tp.Send(to, tag, data); err != nil {
		panic(rankAbort{fmt.Errorf("par: send to rank %d tag %d: %w", to, tag, err)})
	}
}

// Recv blocks until a message with the given tag arrives from rank `from`
// and returns its payload. Messages with other tags from the same sender
// are buffered in order. Under a deadline (SetDeadline) or when the
// sender is lost, Recv aborts the rank body with ErrRankLost instead of
// hanging; RecvTimeout returns the condition as an error.
func (c *Comm) Recv(from, tag int) []float64 {
	data, err := c.RecvTimeout(from, tag, c.deadline)
	if err != nil {
		panic(rankAbort{err})
	}
	return data
}

// RecvTimeout is Recv with an explicit bound: it returns an error wrapping
// ErrRankLost if the link from the sender goes idle for timeout or the
// sending rank is lost while waiting. timeout <= 0 waits until the message
// arrives or the sender dies.
//
// The bound applies per received frame — what it detects is a dead or
// wedged peer; a peer still streaming frames (even mismatched tags) is
// making FIFO progress toward the wanted one, so each arrival re-arms the
// window. No absolute clock is read, keeping the package free of
// wall-time dependence (the transport owns its own timer).
func (c *Comm) RecvTimeout(from, tag int, timeout time.Duration) ([]float64, error) {
	data, err := c.take(from, tag, timeout)
	if err == nil {
		c.Stats.BytesRecvd += int64(8 * len(data))
		c.ctrBytesRecvd.Add(int64(8 * len(data)))
	}
	return data, err
}

// take is the uncounted receive under RecvTimeout and every collective:
// drain frames from the peer in arrival order, parking mismatched tags in
// pending, until the wanted tag arrives or the transport gives up.
func (c *Comm) take(from, tag int, timeout time.Duration) ([]float64, error) {
	c.checkPeer("recv from", from)
	q := c.pending[from]
	for i, m := range q {
		if m.tag == tag {
			c.pending[from] = append(q[:i:i], q[i+1:]...)
			return m.data, nil
		}
	}
	for {
		mt, data, err := c.tp.Recv(from, timeout)
		if err != nil {
			return nil, fmt.Errorf("par: recv from rank %d tag %d: %w", from, tag, err)
		}
		if mt == tag {
			return data, nil
		}
		c.pending[from] = append(c.pending[from], message{tag: mt, data: data})
	}
}

// await is take under the rank's deadline for a collective's frame; a
// failure aborts the rank, naming the collective.
func (c *Comm) await(from, tag int, coll string) []float64 {
	data, err := c.take(from, tag, c.deadline)
	if err != nil {
		panic(rankAbort{fmt.Errorf("par: %s: %w", coll, err)})
	}
	return data
}

// beginColl counts one collective call and opens its trace span.
func (c *Comm) beginColl() int64 {
	c.Stats.Collectives++
	c.ctrColl.Add(1)
	return c.track.Start()
}

// Barrier blocks until all ranks have entered it. Under a deadline or a
// lost rank it aborts with ErrRankLost instead of hanging.
func (c *Comm) Barrier() {
	if err := c.BarrierTimeout(c.deadline); err != nil {
		panic(rankAbort{err})
	}
}

// BarrierTimeout is Barrier with an explicit bound on each frame it waits
// for, returning an error wrapping ErrRankLost when the barrier cannot
// complete: a rank is lost or the timeout expires. timeout <= 0 waits for
// completion or a lost rank.
//
// The barrier is fan-in to rank 0, fan-out back. Per-pair FIFO plus tag
// matching make the ack a true release edge — no rank leaves before every
// rank has entered.
func (c *Comm) BarrierTimeout(timeout time.Duration) error {
	t0 := c.beginColl()
	defer c.track.End("coll:barrier", t0)
	if c.Rank != 0 {
		c.wire(0, tagBarrier, nil)
		if _, err := c.take(0, tagBarrier, timeout); err != nil {
			return fmt.Errorf("par: barrier: %w", err)
		}
		return nil
	}
	for r := 1; r < c.n; r++ {
		if _, err := c.take(r, tagBarrier, timeout); err != nil {
			return fmt.Errorf("par: barrier: %w", err)
		}
	}
	for r := 1; r < c.n; r++ {
		c.wire(r, tagBarrier, nil)
	}
	return nil
}

// ReduceOp selects the elementwise reduction.
type ReduceOp int

const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

// AllreduceVec reduces x elementwise across all ranks and returns the
// result (same on every rank, each rank's own slice). All ranks must pass
// slices of equal length. Rank 0 folds the contributions in ascending rank
// order — never arrival order, float addition does not commute in
// rounding — so the result is independent of scheduling and wire timing
// down to the last bit. Under a deadline or a lost rank it aborts with
// ErrRankLost; a world in which any operation has failed must not be
// reused.
func (c *Comm) AllreduceVec(op ReduceOp, x []float64) []float64 {
	t0 := c.beginColl()
	defer c.track.EndArg("coll:allreduce", t0, "bytes", int64(8*len(x)))
	if c.Rank != 0 {
		// x is lent, not copied: this rank blocks until the root, which
		// reads x before it answers, has answered.
		c.wire(0, tagReduce, x)
		return c.await(0, tagReduceOut, "allreduce")
	}
	acc := slices.Clone(x)
	for r := 1; r < c.n; r++ {
		part := c.await(r, tagReduce, "allreduce")
		if len(part) != len(acc) {
			panic(fmt.Sprintf("par: allreduce length mismatch: %d vs %d", len(part), len(acc)))
		}
		foldVec(op, acc, part)
	}
	for r := 1; r < c.n; r++ {
		c.wire(r, tagReduceOut, slices.Clone(acc)) // the peer keeps it
	}
	return acc
}

// foldVec folds part into acc elementwise.
func foldVec(op ReduceOp, acc, part []float64) {
	for i, v := range part {
		switch op {
		case OpSum:
			acc[i] += v
		case OpMax:
			if v > acc[i] {
				acc[i] = v
			}
		case OpMin:
			if v < acc[i] {
				acc[i] = v
			}
		}
	}
}

// FoldSum folds every rank's slice of partial sums into one scalar — the
// plain sequential sum of all contributions concatenated in ascending
// rank order — and returns it on every rank. Slices may have different
// lengths. It is the collective behind the distributed blocked dot
// product: when each rank passes the sched-blocked partials of its
// contiguous shard of a global vector, the rank-order concatenation is
// exactly the serial ascending-block partial list, so the distributed
// reduction reproduces the single-rank fold bit for bit.
//
// Nothing is copied or allocated: a peer lends parts to the root (as in
// AllreduceVec) and the answer travels in the root's foldOut.
func (c *Comm) FoldSum(parts []float64) float64 {
	var s [1]float64
	c.FoldSums(parts, s[:])
	return s[0]
}

// FoldSums is FoldSum over len(sums) lists in one collective: parts holds
// this rank's lists back to back, each len(parts)/len(sums) long (lengths
// may differ between ranks), and sums[j] receives the fold of every rank's
// list j — per list the very sequence of additions FoldSum performs, so
// reductions that fall due together cost one round trip, not one each.
func (c *Comm) FoldSums(parts, sums []float64) {
	t0 := c.beginColl()
	defer c.track.EndArg("coll:foldsum", t0, "bytes", int64(8*len(parts)))
	if c.Rank != 0 {
		c.wire(0, tagFold, parts)
		copy(sums, c.await(0, tagFoldOut, "foldsum"))
		return
	}
	clear(sums)
	foldLists(sums, parts)
	for r := 1; r < c.n; r++ {
		foldLists(sums, c.await(r, tagFold, "foldsum"))
	}
	c.foldOut = append(c.foldOut[:0], sums...)
	for r := 1; r < c.n; r++ {
		c.wire(r, tagFoldOut, c.foldOut)
	}
}

// foldLists adds each of the len(sums) equal-length lists in parts onto
// its running sum, element by element.
func foldLists(sums, parts []float64) {
	m := len(parts) / len(sums)
	for j, s := range sums {
		for _, v := range parts[j*m : (j+1)*m] {
			s += v
		}
		sums[j] = s
	}
}

// AllreduceSum reduces a scalar sum across ranks.
func (c *Comm) AllreduceSum(x float64) float64 {
	return c.AllreduceVec(OpSum, []float64{x})[0]
}

// AllreduceMax reduces a scalar max across ranks.
func (c *Comm) AllreduceMax(x float64) float64 {
	return c.AllreduceVec(OpMax, []float64{x})[0]
}

// Gather collects every rank's slice at root, in rank order; non-root
// ranks receive nil. Slices may have different lengths. The root keeps
// what it is sent, so every rank contributes a private copy and does not
// wait: per-pair FIFO and the tag keep successive gathers apart.
func (c *Comm) Gather(root int, data []float64) [][]float64 {
	t0 := c.beginColl()
	defer c.track.End("coll:gather", t0)
	if c.Rank != root {
		c.wire(root, tagGather, slices.Clone(data))
		return nil
	}
	out := make([][]float64, c.n)
	for r := range out {
		if r == root {
			out[r] = slices.Clone(data)
		} else {
			out[r] = c.await(r, tagGather, "gather")
		}
	}
	return out
}

// Allgather concatenates every rank's block, in ascending rank order, into
// full on every rank; the block lengths must add up to len(full). Nothing
// is allocated: a peer lends its block to rank 0, which copies it straight
// into its own full and lends that to every peer; each peer copies it into
// its full and acknowledges, and rank 0 returns — free to write full again
// — only when every peer has.
func (c *Comm) Allgather(own, full []float64) {
	t0 := c.beginColl()
	defer c.track.EndArg("coll:allgather", t0, "bytes", int64(8*len(full)))
	if c.Rank != 0 {
		c.wire(0, tagAllgather, own)
		if n := copy(full, c.await(0, tagAllgather, "allgather")); n != len(full) {
			panic(fmt.Sprintf("par: allgather of %d values into %d", n, len(full)))
		}
		c.wire(0, tagAllgather, nil)
		return
	}
	n := len(own)
	copy(full, own)
	for r := 1; r < c.n; r++ {
		part := c.await(r, tagAllgather, "allgather")
		copy(full[min(n, len(full)):], part)
		n += len(part)
	}
	if n != len(full) {
		panic(fmt.Sprintf("par: allgather of %d values into %d", n, len(full)))
	}
	for r := 1; r < c.n; r++ {
		c.wire(r, tagAllgather, full)
	}
	for r := 1; r < c.n; r++ {
		c.await(r, tagAllgather, "allgather")
	}
}

// Reserved internal tags; user tags should be small non-negative ints.
// Each halo form owns a distinct tag so interleaving Exchange,
// ExchangeMany and Start/Finish against the same neighbour in one window
// can never match a packed multi-field buffer to the wrong receive; the
// three stay consecutive (HaloExchanger.bufs is indexed tagHalo-tag).
const (
	tagGather = -1000 - iota
	tagAllgather
	tagHalo
	tagHaloMany
	tagHaloAsync
	tagBarrier
	tagReduce
	tagReduceOut
	tagFold
	tagFoldOut
)
