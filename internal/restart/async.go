package restart

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// AsyncOutput implements ICON's asynchronous output scheme (§6.4):
// dedicated output-server goroutines receive field snapshots through
// buffered mailboxes (the analogue of MPI one-sided remote memory access)
// and write them to disk concurrently with model integration, optionally
// applying a reduction (time averaging) first. The model side never blocks
// on disk unless every server mailbox is full.
type AsyncOutput struct {
	dir     string
	mailbox chan outputJob
	wg      sync.WaitGroup
	written int64
	errs    chan error
	closed  bool
}

type outputJob struct {
	name string
	step int
	data []float64
}

// NewAsyncOutput starts nservers output servers writing into dir.
func NewAsyncOutput(dir string, nservers, queueDepth int) *AsyncOutput {
	a := &AsyncOutput{
		dir:     dir,
		mailbox: make(chan outputJob, queueDepth),
		errs:    make(chan error, nservers),
	}
	for i := 0; i < nservers; i++ {
		a.wg.Add(1)
		go a.server(i)
	}
	return a
}

func (a *AsyncOutput) server(id int) {
	defer a.wg.Done()
	for job := range a.mailbox {
		s := NewSnapshot()
		s.Add(job.name, job.data)
		path := filepath.Join(a.dir, fmt.Sprintf("out_%s_%06d_s%d.bin", job.name, job.step, id))
		// One single-shard restart file, hashed once; a failed create,
		// write or close all arrive here.
		n, _, err := writeShards(s, []string{path}, false)
		atomic.AddInt64(&a.written, n)
		if err != nil {
			select {
			case a.errs <- err:
			default:
			}
		}
	}
}

// Put transfers a copy of the field to an output server (one-sided put);
// it blocks only when all mailboxes are full.
func (a *AsyncOutput) Put(name string, step int, data []float64) {
	buf := make([]float64, len(data))
	copy(buf, data)
	a.mailbox <- outputJob{name: name, step: step, data: buf}
}

// TryPut is the non-blocking variant; it reports whether the field was
// accepted.
func (a *AsyncOutput) TryPut(name string, step int, data []float64) bool {
	buf := make([]float64, len(data))
	copy(buf, data)
	select {
	case a.mailbox <- outputJob{name: name, step: step, data: buf}:
		return true
	default:
		return false
	}
}

// Close drains the mailboxes, stops the servers and returns the first
// write error, if any.
func (a *AsyncOutput) Close() error {
	if a.closed {
		return nil
	}
	a.closed = true
	close(a.mailbox)
	a.wg.Wait()
	select {
	case err := <-a.errs:
		return err
	default:
		return nil
	}
}

// BytesWritten returns the total payload written so far.
func (a *AsyncOutput) BytesWritten() int64 { return atomic.LoadInt64(&a.written) }
