package socket

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"icoearth/internal/grid"
	"icoearth/internal/par"
	"icoearth/internal/trace"
)

// startMesh forms an n-rank mesh in one process (one goroutine per rank,
// sharing a socket directory) and tears it down with the test.
func startMesh(t *testing.T, n int) []*Transport {
	t.Helper()
	dir := t.TempDir()
	tps := make([]*Transport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tps[r], errs[r] = New(dir, r, n, 5*time.Second)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d mesh formation: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, tp := range tps {
			tp.Close()
		}
	})
	return tps
}

// runMesh runs body as one par rank per transport and joins the errors.
func runMesh(t *testing.T, tps []*Transport, body func(c *par.Comm)) {
	t.Helper()
	errs := make([]error, len(tps))
	var wg sync.WaitGroup
	for r := range tps {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = par.RunTransport(tps[r], body)
		}(r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvExactBits(t *testing.T) {
	tps := startMesh(t, 2)
	want := make([]float64, 100)
	for i := range want {
		want[i] = math.Sin(float64(i) * 1.7)
	}
	done := make(chan error, 1)
	go func() { done <- tps[0].Send(1, 42, want) }()
	tag, got, err := tps[1].Recv(0, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if tag != 42 || len(got) != len(want) {
		t.Fatalf("tag %d len %d, want 42/%d", tag, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("idx %d: %x != %x (floats must survive the wire bit-exactly)", i, got[i], want[i])
		}
	}
}

func TestFIFOPerPair(t *testing.T) {
	tps := startMesh(t, 2)
	const n = 200
	go func() {
		for i := 0; i < n; i++ {
			tps[0].Send(1, i, []float64{float64(i)})
		}
	}()
	for i := 0; i < n; i++ {
		tag, data, err := tps[1].Recv(0, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if tag != i || data[0] != float64(i) {
			t.Fatalf("frame %d arrived as tag %d value %v: FIFO order broken", i, tag, data[0])
		}
	}
}

func TestCollectivesOverSocket(t *testing.T) {
	const n = 4
	tps := startMesh(t, n)
	runMesh(t, tps, func(c *par.Comm) {
		c.SetDeadline(5 * time.Second)
		if got := c.AllreduceSum(float64(c.Rank + 1)); got != n*(n+1)/2 {
			t.Errorf("rank %d: allreduce = %v", c.Rank, got)
		}
		c.Barrier()
		v := c.AllreduceVec(par.OpMax, []float64{float64(c.Rank), -float64(c.Rank)})
		if v[0] != n-1 || v[1] != 0 {
			t.Errorf("rank %d: max vec = %v", c.Rank, v)
		}
		out := c.Gather(0, []float64{float64(c.Rank) * 10})
		if c.Rank == 0 {
			for r := 0; r < n; r++ {
				if out[r][0] != float64(r)*10 {
					t.Errorf("gather rank %d = %v", r, out[r])
				}
			}
		}
		full := make([]float64, 2*n)
		c.Allgather([]float64{float64(c.Rank), -1.5}, full)
		for r := 0; r < n; r++ {
			if full[2*r] != float64(r) || full[2*r+1] != -1.5 {
				t.Errorf("rank %d: allgather = %v", c.Rank, full)
			}
		}
	})
}

// TestFoldSumMatchesSerial: the ordered fold over sockets must equal the
// sequential fold of the ascending-rank concatenation bit-for-bit — the
// property the distributed CG's determinism rests on.
func TestFoldSumMatchesSerial(t *testing.T) {
	const n = 3
	parts := [][]float64{
		{0.1, 0.2, 0.3},
		{1e-17, 4e8},
		{-0.3, 0.7, 1e-9, 5},
	}
	var serial float64
	for _, p := range parts {
		for _, v := range p {
			serial += v
		}
	}
	tps := startMesh(t, n)
	runMesh(t, tps, func(c *par.Comm) {
		c.SetDeadline(5 * time.Second)
		for iter := 0; iter < 5; iter++ {
			got := c.FoldSum(parts[c.Rank])
			if math.Float64bits(got) != math.Float64bits(serial) {
				t.Errorf("rank %d iter %d: fold = %x, serial = %x", c.Rank, iter, got, serial)
				return
			}
		}
	})
}

// TestPairedFoldOverSocket: the k-list fold with lists of unequal length
// per rank equals, list by list, the sequential fold of the ascending-rank
// concatenation.
func TestPairedFoldOverSocket(t *testing.T) {
	const n = 3
	parts := [][]float64{ // each rank: list 0 then list 1, equal halves
		{0.1, 0.2, 0.3, 1e-17, 4e8, -7},
		{1e-17, 4e8},
		{-0.3, 0.7, 1e-9, 5},
	}
	var serial [2]float64
	for _, p := range parts {
		for i, v := range p {
			serial[2*i/len(p)] += v
		}
	}
	runMesh(t, startMesh(t, n), func(c *par.Comm) {
		c.SetDeadline(5 * time.Second)
		for iter := 0; iter < 5; iter++ {
			var got [2]float64
			c.FoldSums(parts[c.Rank], got[:])
			if got != serial {
				t.Errorf("rank %d iter %d: folds = %x, serial = %x", c.Rank, iter, got, serial)
				return
			}
		}
	})
}

// TestRecvAllocatesThePayloadOnly: a frame costs its receiver one
// allocation, the decoded payload — the bytes are read through the peer's
// one scratch buffer, and under a deadline a receive that has to wait
// re-arms the peer's one timer. A fold over two ranks is two frames with a
// payload. testing.AllocsPerRun counts the whole process, reader goroutines
// and rank 1 included.
func TestRecvAllocatesThePayloadOnly(t *testing.T) {
	const runs = 200
	for _, deadline := range []time.Duration{0, time.Minute} {
		runMesh(t, startMesh(t, 2), func(c *par.Comm) {
			c.SetDeadline(deadline)
			parts := make([]float64, 16)
			fold := func() { c.FoldSum(parts) }
			fold()
			if c.Rank != 0 {
				for i := 0; i < runs+1; i++ { // AllocsPerRun's warm-up call, then runs
					fold()
				}
				return
			}
			if n := testing.AllocsPerRun(runs, fold); n != 2 {
				t.Errorf("deadline %v: a FoldSum over sockets allocates %v times over both ranks, want 2 (one payload per frame)", deadline, n)
			}
		})
	}
}

// TestReadFrameGrowsWithArrival: a payload of many chunks decodes exactly
// through a reader that delivers it in halves, the scratch buffer is kept
// for the next frame, and a header that names 64 MiB with 100 bytes behind
// it costs a few chunks, not 64 MiB.
func TestReadFrameGrowsWithArrival(t *testing.T) {
	want := make([]float64, 5*readChunk/8+3)
	for i := range want {
		want[i] = math.Sin(float64(i))
	}
	wire := appendFrame(appendFrame(nil, -7, want), 9, want[:2])
	rd := iotest.HalfReader(bytes.NewReader(wire))
	var scratch []byte
	f, err := readFrame(rd, &scratch)
	if err != nil || f.tag != -7 || !slices.Equal(f.data, want) {
		t.Fatalf("large frame: tag %d, %d values, err %v", f.tag, len(f.data), err)
	}
	kept := cap(scratch)
	if f, err = readFrame(rd, &scratch); err != nil || f.tag != 9 || !slices.Equal(f.data, want[:2]) || cap(scratch) != kept {
		t.Fatalf("second frame: %+v, err %v, scratch %d → %d", f, err, kept, cap(scratch))
	}
	if _, err = readFrame(rd, &scratch); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}

	liar := append(appendFrame(nil, 1, nil)[:4], 0, 0, 0x80, 0) // count = maxFrameFloats
	liar = append(liar, make([]byte, 100)...)
	scratch = nil
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = readFrame(bytes.NewReader(liar), &scratch)
	runtime.ReadMemStats(&after)
	if err == nil || after.TotalAlloc-before.TotalAlloc > allocBound(len(liar)) {
		t.Errorf("64 MiB header over 100 bytes: err %v, %d bytes allocated", err, after.TotalAlloc-before.TotalAlloc)
	}
}

func TestHaloExchangeOverSocket(t *testing.T) {
	g := grid.New(grid.R2B(2))
	const nranks = 3
	const nlev = 2
	d, err := grid.Decompose(g, nranks)
	if err != nil {
		t.Fatal(err)
	}
	tps := startMesh(t, nranks)
	runMesh(t, tps, func(c *par.Comm) {
		c.SetDeadline(5 * time.Second)
		p := d.Parts[c.Rank]
		n := len(p.Owner) + len(p.HaloCells)
		field := make([]float64, n*nlev)
		for i, gc := range p.Owner {
			for k := 0; k < nlev; k++ {
				field[i*nlev+k] = float64(gc*10 + k)
			}
		}
		h, err := par.NewHaloExchanger(c, p)
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank, err)
			return
		}
		op := h.Start([][]float64{field}, nlev)
		if err := op.Finish(); err != nil {
			t.Errorf("rank %d: overlapped halo: %v", c.Rank, err)
			return
		}
		for _, gc := range p.HaloCells {
			li := p.LocalIndex[gc]
			for k := 0; k < nlev; k++ {
				if want := float64(gc*10 + k); field[li*nlev+k] != want {
					t.Errorf("rank %d: halo cell %d lev %d = %v want %v", c.Rank, gc, k, field[li*nlev+k], want)
					return
				}
			}
		}
	})
}

func TestLostRank(t *testing.T) {
	tps := startMesh(t, 2)
	tps[1].Close()
	if _, _, err := tps[0].Recv(1, 2*time.Second); !errors.Is(err, par.ErrRankLost) {
		t.Fatalf("recv from closed peer = %v, want ErrRankLost", err)
	}
}

func TestRecvDeadline(t *testing.T) {
	tps := startMesh(t, 2)
	t0 := time.Now()
	_, _, err := tps[0].Recv(1, 50*time.Millisecond)
	if !errors.Is(err, par.ErrRankLost) {
		t.Fatalf("recv with no sender = %v, want ErrRankLost", err)
	}
	if time.Since(t0) > 2*time.Second {
		t.Fatalf("deadline did not bound the wait")
	}
}

func TestWireCounters(t *testing.T) {
	tps := startMesh(t, 2)
	tr := trace.New()
	tps[0].AttachTrace(tr.Track("wire", 0))
	tps[1].AttachTrace(tr.Track("wire", 1))
	payload := make([]float64, 32)
	if err := tps[0].Send(1, 1, payload); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tps[1].Recv(0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	w0, w1 := tps[0].Wire(), tps[1].Wire()
	if w0.FramesSent != 1 || w0.BytesSent != 8*32 {
		t.Errorf("sender wire = %+v", w0)
	}
	if w1.FramesRecvd != 1 || w1.BytesRecvd != 8*32 {
		t.Errorf("receiver wire = %+v", w1)
	}
	if got := tr.Track("wire", 0).CounterValue("wire_bytes_sent"); got != 8*32 {
		t.Errorf("trace wire_bytes_sent = %d", got)
	}
	if got := tr.Track("wire", 1).CounterValue("wire_bytes_recvd"); got != 8*32 {
		t.Errorf("trace wire_bytes_recvd = %d", got)
	}
}

func TestSingleRankShortcut(t *testing.T) {
	tp, err := New(t.TempDir(), 0, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	if tp.NRanks() != 1 || tp.Rank() != 0 {
		t.Fatalf("n=%d rank=%d", tp.NRanks(), tp.Rank())
	}
	if err := par.RunTransport(tp, func(c *par.Comm) {
		if got := c.AllreduceSum(7); got != 7 {
			t.Errorf("1-rank allreduce = %v", got)
		}
		c.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
}

func TestChildEnv(t *testing.T) {
	if _, _, ok := ChildEnv(); ok {
		t.Skip("running inside a socket child")
	}
	t.Setenv(EnvDir, t.TempDir())
	t.Setenv(EnvRank, "2")
	t.Setenv(EnvRanks, "5")
	rank, n, ok := ChildEnv()
	if !ok || rank != 2 || n != 5 {
		t.Fatalf("ChildEnv = %d/%d/%v, want 2/5/true", rank, n, ok)
	}
	os.Unsetenv(EnvRank)
	if _, _, ok := ChildEnv(); ok {
		t.Fatal("ChildEnv without rank var should not be ok")
	}
}

// TestStatsSameOnBothTransports: one Comm over one Transport means one
// accounting rule. The same body — sends, a halo exchange, and one of
// every collective — run over the goroutine ranks of a World and over a
// socket mesh must leave field-for-field equal Stats on every rank: the
// frames a collective is built from are nobody's messages on either.
func TestStatsSameOnBothTransports(t *testing.T) {
	const n = 3
	d, err := grid.Decompose(grid.New(grid.R2B(1)), n)
	if err != nil {
		t.Fatal(err)
	}
	var stats [2][n]par.Stats
	body := func(out *[n]par.Stats) func(c *par.Comm) {
		return func(c *par.Comm) {
			c.SetDeadline(5 * time.Second)
			next, prev := (c.Rank+1)%n, (c.Rank+n-1)%n
			for i := 0; i < 3; i++ {
				c.Send(next, i, make([]float64, 10*(i+1)))
			}
			for i := 2; i >= 0; i-- {
				c.Recv(prev, i)
			}
			p := d.Parts[c.Rank]
			h, err := par.NewHaloExchanger(c, p)
			if err != nil {
				t.Errorf("rank %d: %v", c.Rank, err)
				return
			}
			if err := h.Exchange(make([]float64, 2*(len(p.Owner)+len(p.HaloCells))), 2); err != nil {
				t.Errorf("rank %d: %v", c.Rank, err)
				return
			}
			c.Barrier()
			c.FoldSum([]float64{1, 2, 3})
			c.AllreduceVec(par.OpMax, []float64{float64(c.Rank), 1})
			c.Gather(1, make([]float64, 4+c.Rank))
			c.Allgather(make([]float64, 4+c.Rank), make([]float64, 4*n+n*(n-1)/2))
			out[c.Rank] = c.Stats
		}
	}
	par.NewWorld(n).Run(body(&stats[0]))
	runMesh(t, startMesh(t, n), body(&stats[1]))
	for r := 0; r < n; r++ {
		if stats[0][r] != stats[1][r] {
			t.Errorf("rank %d: World %+v\n        socket %+v", r, stats[0][r], stats[1][r])
		}
		if got := stats[0][r]; got.Msgs == 0 || got.BytesRecvd == 0 || got.Collectives != 5 {
			t.Errorf("rank %d: %+v, want traffic and 5 collectives", r, got)
		}
	}
}
