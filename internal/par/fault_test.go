package par

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestCrashedRankDoesNotDeadlockRun: a rank that panics mid-exchange must
// not leave its peers (and World.Run) hanging forever — the peers abort
// with ErrRankLost and Run reports both failures.
func TestCrashedRankDoesNotDeadlockRun(t *testing.T) {
	w := NewWorld(2)
	done := make(chan error, 1)
	go func() {
		done <- w.RunErr(func(c *Comm) {
			if c.Rank == 0 {
				panic("injected crash")
			}
			c.Recv(0, 42) // never sent: must unblock via lost-rank detection
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("RunErr returned nil despite a crashed rank")
		}
		if !errors.Is(err, ErrRankLost) {
			t.Errorf("error does not wrap ErrRankLost: %v", err)
		}
		if !strings.Contains(err.Error(), "injected crash") {
			t.Errorf("original panic lost: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("World.Run deadlocked on a crashed rank")
	}
}

// TestCrashedRankUnblocksBarrier: ranks blocked in a collective when a
// peer dies abort with ErrRankLost instead of waiting forever.
func TestCrashedRankUnblocksBarrier(t *testing.T) {
	const n = 4
	w := NewWorld(n)
	done := make(chan error, 1)
	go func() {
		done <- w.RunErr(func(c *Comm) {
			if c.Rank == 0 {
				panic("dead")
			}
			c.Barrier()
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrRankLost) {
			t.Errorf("want ErrRankLost, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("barrier deadlocked on a crashed rank")
	}
}

// TestRecvTimeout: a Recv bounded by an explicit deadline returns a typed
// ErrRankLost error when nothing arrives.
func TestRecvTimeout(t *testing.T) {
	w := NewWorld(2)
	var got error
	err := w.RunErr(func(c *Comm) {
		if c.Rank == 1 {
			_, got = c.RecvTimeout(0, 7, 20*time.Millisecond)
		}
		// Rank 0 sends nothing and exits cleanly.
	})
	if err != nil {
		t.Fatalf("RunErr: %v", err)
	}
	if !errors.Is(got, ErrRankLost) {
		t.Errorf("RecvTimeout = %v, want ErrRankLost", got)
	}
}

// TestRecvTimeoutDelivers: the bounded receive still delivers messages
// that do arrive, including tag-mismatched buffering.
func TestRecvTimeoutDelivers(t *testing.T) {
	w := NewWorld(2)
	err := w.RunErr(func(c *Comm) {
		if c.Rank == 0 {
			c.Send(1, 9, []float64{1})
			c.Send(1, 7, []float64{2})
			return
		}
		got, err := c.RecvTimeout(0, 7, time.Second)
		if err != nil || got[0] != 2 {
			t.Errorf("tag 7: %v %v", got, err)
		}
		got, err = c.RecvTimeout(0, 9, time.Second)
		if err != nil || got[0] != 1 {
			t.Errorf("buffered tag 9: %v %v", got, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBarrierTimeout: a barrier that cannot complete within its bound
// returns ErrRankLost instead of hanging.
func TestBarrierTimeout(t *testing.T) {
	w := NewWorld(2)
	var got error
	err := w.RunErr(func(c *Comm) {
		if c.Rank == 1 {
			got = c.BarrierTimeout(20 * time.Millisecond)
		}
		// Rank 0 never enters the barrier.
	})
	if err != nil {
		t.Fatalf("RunErr: %v", err)
	}
	if !errors.Is(got, ErrRankLost) {
		t.Errorf("BarrierTimeout = %v, want ErrRankLost", got)
	}
}

// TestWorldDeadlineAbortsRecv: with a world-level deadline, the plain
// Recv API aborts the rank (reported by RunErr) instead of hanging.
func TestWorldDeadlineAbortsRecv(t *testing.T) {
	w := NewWorld(2)
	w.SetDeadline(20 * time.Millisecond)
	done := make(chan error, 1)
	go func() {
		done <- w.RunErr(func(c *Comm) {
			if c.Rank == 1 {
				c.Recv(0, 3) // nothing ever sent
			}
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrRankLost) {
			t.Errorf("want ErrRankLost, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deadline did not fire")
	}
}

// TestMsgHookDrop: a DropMsg verdict loses the message; the receiver sees
// the follow-up traffic only and the drop is counted.
func TestMsgHookDrop(t *testing.T) {
	w := NewWorld(2)
	w.SetMsgHook(func(from, to, tag, n int) MsgFate {
		if tag == 13 {
			return DropMsg
		}
		return DeliverMsg
	})
	err := w.RunErr(func(c *Comm) {
		if c.Rank == 0 {
			c.Send(1, 13, []float64{666})
			c.Send(1, 5, []float64{1})
			if c.Stats.Dropped != 1 {
				t.Errorf("Dropped = %d", c.Stats.Dropped)
			}
			return
		}
		if got, err := c.RecvTimeout(0, 5, time.Second); err != nil || got[0] != 1 {
			t.Errorf("surviving message: %v %v", got, err)
		}
		if _, err := c.RecvTimeout(0, 13, 20*time.Millisecond); !errors.Is(err, ErrRankLost) {
			t.Errorf("dropped message was delivered (err=%v)", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMsgHookDelay: a DelayMsg verdict reorders the message behind the
// next send on the same pair; tag matching hides the reorder from Recv.
func TestMsgHookDelay(t *testing.T) {
	w := NewWorld(2)
	first := true
	w.SetMsgHook(func(from, to, tag, n int) MsgFate {
		if first {
			first = false
			return DelayMsg
		}
		return DeliverMsg
	})
	err := w.RunErr(func(c *Comm) {
		if c.Rank == 0 {
			c.Send(1, 1, []float64{1}) // delayed
			c.Send(1, 2, []float64{2}) // flushes the parked message after itself
			return
		}
		// Arrival order is 2 then 1; tag matching delivers both.
		if got, err := c.RecvTimeout(0, 1, time.Second); err != nil || got[0] != 1 {
			t.Errorf("delayed message: %v %v", got, err)
		}
		if got, err := c.RecvTimeout(0, 2, time.Second); err != nil || got[0] != 2 {
			t.Errorf("flushing message: %v %v", got, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendToLostRankFullInbox: a Send that finds its peer's inbox full
// must not outlive the peer. Rank 1 dies without reading; rank 0 posts
// more one-float messages than the inbox holds. The sends that fit
// succeed, the first that does not aborts rank 0 with ErrRankLost, and
// RunErr returns.
func TestSendToLostRankFullInbox(t *testing.T) {
	w := NewWorld(2)
	w.SetDeadline(200 * time.Millisecond)
	done := make(chan error, 1)
	go func() {
		done <- w.RunErr(func(c *Comm) {
			if c.Rank == 1 {
				panic("injected crash")
			}
			for i := 0; i < 300; i++ {
				c.Send(1, i, []float64{float64(i)})
			}
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrRankLost) {
			t.Errorf("want ErrRankLost, got %v", err)
		}
		if st := w.RankStats(0); st.Delivered != int64(cap(w.chans[0][1])) {
			t.Errorf("Delivered = %d, want the inbox capacity %d", st.Delivered, cap(w.chans[0][1]))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Send to a lost rank with a full inbox never returned")
	}
}

// TestCommSetDeadlineOnWorldRank: a goroutine rank's own SetDeadline
// takes effect exactly as it does on a socket rank — a Recv with no
// sender aborts the rank instead of hanging an unbounded World.
func TestCommSetDeadlineOnWorldRank(t *testing.T) {
	w := NewWorld(2) // no world deadline
	done := make(chan error, 1)
	go func() {
		done <- w.RunErr(func(c *Comm) {
			if c.Rank == 1 {
				c.SetDeadline(50 * time.Millisecond)
				c.Recv(0, 3) // nothing ever sent
			}
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrRankLost) {
			t.Errorf("want ErrRankLost, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Comm.SetDeadline had no effect on a World rank")
	}
}

// TestRootLossAbortsCollectives: rank 0 is the fan-in point of every
// collective, so it is the rank whose death must not strand the others.
// With rank 0 crashed, each survivor's collective aborts with
// ErrRankLost and RunErr returns.
func TestRootLossAbortsCollectives(t *testing.T) {
	const n = 4
	for name, op := range map[string]func(c *Comm){
		"barrier":   func(c *Comm) { c.Barrier() },
		"foldsum":   func(c *Comm) { c.FoldSum([]float64{1, 2}) },
		"allreduce": func(c *Comm) { c.AllreduceVec(OpSum, []float64{1, 2}) },
		"allgather": func(c *Comm) { c.Allgather([]float64{1}, make([]float64, n)) },
	} {
		t.Run(name, func(t *testing.T) {
			w := NewWorld(n)
			aborts := make([]error, n)
			done := make(chan error, 1)
			go func() {
				done <- w.RunErr(func(c *Comm) {
					if c.Rank == 0 {
						panic("root crash")
					}
					defer func() {
						p := recover()
						if a, ok := p.(rankAbort); ok {
							aborts[c.Rank] = a.err
						}
						panic(p)
					}()
					op(c)
				})
			}()
			select {
			case err := <-done:
				if !errors.Is(err, ErrRankLost) || !strings.Contains(err.Error(), "root crash") {
					t.Errorf("RunErr = %v, want the crash and ErrRankLost", err)
				}
				for r := 1; r < n; r++ {
					if !errors.Is(aborts[r], ErrRankLost) {
						t.Errorf("rank %d: %s ended with %v, want an ErrRankLost abort", r, name, aborts[r])
					}
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s deadlocked on a crashed root", name)
			}
		})
	}
}
