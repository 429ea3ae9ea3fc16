package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"icoearth/internal/grid"
	"icoearth/internal/ocean"
	"icoearth/internal/par"
	"icoearth/internal/par/socket"
	"icoearth/internal/sched"
	"icoearth/internal/vertical"
)

const (
	cgRanks   = 2
	cgDt      = 600.0 // the ocean timestep one barotropic solve advances
	cgTol     = 1e-8
	cgMaxIter = 4000
	// rankTimeout bounds every blocking rank operation and every wait of
	// the coordinator, so a lost rank ends the run instead of hanging it.
	rankTimeout = 60 * time.Second
)

// cgRig is the set-up of dist_cg: the ocean on its grid, the serial
// operator, the aligned 2-rank decomposition, and one live group of rank
// goroutines per transport, each rank holding its DistBarotropic.
type cgRig struct {
	g   *grid.Grid
	s   *ocean.State
	op  *ocean.BarotropicOp
	d   *grid.Decomposition
	rhs []float64
	// ref is the serial solution every distributed solve must reproduce
	// bit for bit, in refIters iterations.
	ref      []float64
	refIters int

	inproc, sock *rankGroup
	meshConnect  time.Duration
}

// rankReq asks every rank of a group for one collective action.
type rankReq struct {
	kind int // reqSolve, reqAllreduce or reqHalo
	reps int
}

const (
	reqSolve = iota
	reqAllreduce
	reqHalo
)

// rankRes is one rank's answer. Counters are cumulative, read after the
// action; the coordinator differences them.
type rankRes struct {
	rank       int
	wall       time.Duration // from the rank's barrier exit to its return
	iters      int
	err        error
	allreduces int
	haloBytes  int64
	overlap    float64
	stats      par.Stats
	wire       socket.WireStats
}

// rankGroup is one transport's live ranks. The coordinator is the single
// closed-loop client: it posts a request to every rank and waits for
// every answer before posting the next.
type rankGroup struct {
	name  string
	req   [cgRanks]chan rankReq
	done  chan rankRes
	exit  chan error // one value per rank goroutine
	close func()     // releases transport resources after the ranks exit
}

// do runs one collective action and returns the answers indexed by rank.
func (grp *rankGroup) do(req rankReq) ([cgRanks]rankRes, error) {
	var out [cgRanks]rankRes
	for r := range grp.req {
		grp.req[r] <- req
	}
	var errs []error
	for range grp.req {
		select {
		case res := <-grp.done:
			out[res.rank] = res
			errs = append(errs, res.err)
		case <-time.After(rankTimeout):
			return out, fmt.Errorf("%s ranks did not answer within %v", grp.name, rankTimeout)
		}
	}
	return out, errors.Join(errs...)
}

// stop ends the rank goroutines and waits for them.
func (grp *rankGroup) stop() error {
	for r := range grp.req {
		close(grp.req[r])
	}
	var errs []error
	for range grp.req {
		errs = append(errs, <-grp.exit)
	}
	grp.close()
	return errors.Join(errs...)
}

// rankBody is what every rank runs: build the distributed solver and a
// halo exchanger (both collective), report ready, then serve requests.
func (rig *cgRig) rankBody(grp *rankGroup, wire func(rank int) socket.WireStats) func(c *par.Comm) {
	return func(c *par.Comm) {
		db, err := ocean.NewDistBarotropic(rig.s, cgDt, rig.d, c)
		var halo *par.HaloExchanger
		if err == nil {
			halo, err = par.NewHaloExchanger(c, rig.d.Parts[c.Rank])
		}
		grp.done <- rankRes{rank: c.Rank, err: err}
		if err != nil {
			return
		}
		part := rig.d.Parts[c.Rank]
		field := make([]float64, len(part.Owner)+len(part.HaloCells))
		eta := make([]float64, len(rig.rhs))
		parts := make([]float64, sched.NumBlocks(len(rig.rhs))/cgRanks)
		for req := range grp.req[c.Rank] {
			res := rankRes{rank: c.Rank}
			switch req.kind {
			case reqSolve:
				clear(eta)
				c.Barrier()
				t0 := time.Now()
				st, err := db.Solve(rig.rhs, eta, cgTol, cgMaxIter)
				res.wall, res.iters, res.err = time.Since(t0), st.Iterations, err
				if err == nil && !sameBits(eta, rig.ref) {
					res.err = fmt.Errorf("rank %d: eta differs from the serial solve", c.Rank)
				}
			case reqAllreduce: // the solver's reduction: an ordered fold of block partials
				c.Barrier()
				t0 := time.Now()
				for i := 0; i < req.reps; i++ {
					c.FoldSum(parts)
				}
				res.wall = time.Since(t0)
			case reqHalo:
				c.Barrier()
				t0 := time.Now()
				for i := 0; i < req.reps && res.err == nil; i++ {
					res.err = halo.Exchange(field, 1)
				}
				res.wall = time.Since(t0)
			}
			res.allreduces, res.haloBytes, res.overlap = db.CG.Allreduces, db.CG.HaloBytes, db.CG.OverlapFrac()
			res.stats = c.Stats
			if wire != nil {
				res.wire = wire(c.Rank)
			}
			grp.done <- res
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func newRankGroup(name string) *rankGroup {
	grp := &rankGroup{name: name, done: make(chan rankRes, cgRanks), exit: make(chan error, cgRanks)}
	for r := range grp.req {
		grp.req[r] = make(chan rankReq, 1)
	}
	return grp
}

// awaitReady collects the ranks' construction reports.
func (grp *rankGroup) awaitReady() error {
	var errs []error
	for range grp.req {
		select {
		case res := <-grp.done:
			errs = append(errs, res.err)
		case <-time.After(rankTimeout):
			return fmt.Errorf("%s ranks did not come up within %v", grp.name, rankTimeout)
		}
	}
	return errors.Join(errs...)
}

// buildCG is the set-up of dist_cg: grid, ocean state, serial operator,
// aligned decomposition, the in-process world and the unix-socket mesh
// (formed inside this process, one transport per rank), and the
// distributed solver on every rank of both.
func buildCG(cfg runCfg, sockDir string) (*cgRig, error) {
	sched.SetWorkers(workers())
	rig := &cgRig{g: grid.New(grid.R2B(cfg.sz.cgLevel))}
	rig.s = ocean.NewState(rig.g, grid.NewMask(rig.g), vertical.NewOcean(8, 4000, 50))
	rig.s.InitAnalytic()
	rig.op = ocean.NewBarotropicOp(rig.s, cgDt)
	cuts, err := ocean.AlignedCuts(rig.s, cgRanks)
	if err != nil {
		return nil, err
	}
	if rig.d, err = grid.DecomposeAt(rig.g, cuts); err != nil {
		return nil, err
	}
	rig.rhs = smoothRHS(rig.g, rig.s, cfg.seed)
	rig.ref = make([]float64, len(rig.rhs))

	rig.inproc = newRankGroup("inproc")
	world := par.NewWorld(cgRanks)
	world.SetDeadline(rankTimeout)
	rig.inproc.close = func() {}
	go func() {
		err := world.RunErr(rig.rankBody(rig.inproc, nil))
		for range rig.inproc.req {
			rig.inproc.exit <- err
			err = nil
		}
	}()

	if err := os.MkdirAll(sockDir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	var tps [cgRanks]*socket.Transport
	var errs [cgRanks]error
	var wg sync.WaitGroup
	for r := range tps {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tps[r], errs[r] = socket.New(sockDir, r, cgRanks, rankTimeout)
		}(r)
	}
	wg.Wait()
	rig.meshConnect = time.Since(t0)
	if err := errors.Join(errs[:]...); err != nil {
		return nil, err
	}
	rig.sock = newRankGroup("socket")
	rig.sock.close = func() {
		for _, tp := range tps {
			tp.Close()
		}
	}
	body := rig.rankBody(rig.sock, func(rank int) socket.WireStats { return tps[rank].Wire() })
	for _, tp := range tps {
		go func(tp *socket.Transport) {
			rig.sock.exit <- par.RunTransport(tp, func(c *par.Comm) {
				c.SetDeadline(rankTimeout)
				body(c)
			})
		}(tp)
	}
	return rig, errors.Join(rig.inproc.awaitReady(), rig.sock.awaitReady())
}

func (rig *cgRig) stop() error { return errors.Join(rig.inproc.stop(), rig.sock.stop()) }

// serialSolve runs the serial reference solve into rig.ref.
func (rig *cgRig) serialSolve() (time.Duration, error) {
	clear(rig.ref)
	t0 := time.Now()
	st, err := rig.op.Solve(rig.rhs, rig.ref, cgTol, cgMaxIter)
	rig.refIters = st.Iterations
	return time.Since(t0), err
}

// solve runs one distributed solve on a group and checks it against the
// serial reference: bit-identical eta on every rank (checked by the
// ranks), equal iteration counts. It returns rank 0's wall time.
func (rig *cgRig) solve(b *bench, grp *rankGroup) ([cgRanks]rankRes, time.Duration) {
	res, err := grp.do(rankReq{kind: reqSolve})
	for _, r := range res {
		if err == nil && r.iters != rig.refIters {
			err = fmt.Errorf("rank %d took %d iterations, the serial solve %d", r.rank, r.iters, rig.refIters)
		}
	}
	b.op(grp.name+" solve", err)
	return res, res[0].wall
}

// runDistCG runs the dist_cg workload. A "window" of this workload is one
// barotropic step solved once on each transport — an in-process solve then
// a socket solve of the same system — so window latency and τ (one ocean
// timestep of simulated time per window) mean here what they mean on the
// coupled workloads, and both transports are on the critical path.
func runDistCG(b *bench, cfg runCfg) {
	sz := cfg.sz
	host := newHostRef()
	var rig *cgRig
	var setupS []float64
	for i := 0; i < sz.setups; i++ {
		host.sample()
		t0 := time.Now()
		r, err := buildCG(cfg, filepath.Join(cfg.tmp, fmt.Sprintf("mesh%d", i)))
		setupS = append(setupS, time.Since(t0).Seconds()*host.scale())
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: dist_cg set-up:", err)
			os.Exit(2)
		}
		if i == 0 {
			rig = r
			continue
		}
		if err := r.stop(); err != nil {
			b.fail("stopping set-up %d: %v", i, err)
		}
		r = nil
		runtime.GC() // a discarded set-up must not count towards peak_rss_mb
	}
	defer func() {
		if err := rig.stop(); err != nil {
			b.fail("stopping the ranks: %v", err)
		}
	}()
	if _, err := rig.serialSolve(); err != nil {
		b.op("serial solve", err)
		return
	}
	if cfg.trace {
		runDistCGTraced(b, cfg, rig, host)
		return
	}
	b.set("setup_s", median(setupS))

	t := newTimed(host)
	for i := 0; i < 3; i++ { // warm both transports: scratch, socket buffers
		rig.solve(b, rig.inproc)
		rig.solve(b, rig.sock)
	}
	runtime.GC()
	host.sample()
	t.alloc.resume()
	start := time.Now()
	for n := 0; n < sz.minOps || time.Since(start).Seconds() < sz.seconds; n++ {
		t0 := time.Now()
		rig.solve(b, rig.inproc)
		rig.solve(b, rig.sock)
		d := time.Since(t0)
		t.alloc.pause()
		t.charge(d, true)
		t.alloc.resume()
		t.simS += cgDt
	}
	t.alloc.pause()
	t.emit(b, cfg, "dist_cg")
	fmt.Fprintf(cfg.out, "dist_cg: %d wet cells, %d iterations per solve\n", rig.s.NOcean(), rig.refIters)
}

// runDistCGTraced is the --trace 1 run of dist_cg: serial solves, then
// solve pairs alternately with and without a span around each solve,
// reading the par and socket counters around them, then the collectives
// in isolation.
func runDistCGTraced(b *bench, cfg runCfg, rig *cgRig, host *hostRef) {
	sz := cfg.sz
	rec := newRecorder()

	var serialMs []float64
	for i := 0; i < sz.minOps; i++ {
		id := rec.begin("solve:serial", -1, i)
		d, err := rig.serialSolve()
		rec.end(id)
		serialMs = append(serialMs, ms(d))
		b.op("serial solve", err)
	}

	var inprocMs, sockMs, plainMs, tracedMs []float64
	var first, last [2][cgRanks]rankRes // per group: counters after the first and the last solve
	budget := 0.5 * sz.seconds
	start := time.Now()
	for n := 0; n < 2*sz.minOps || time.Since(start).Seconds() < budget; n++ {
		traced := n%2 == 1
		t0 := time.Now()
		for gi, grp := range []*rankGroup{rig.inproc, rig.sock} {
			id := -1
			if traced {
				id = rec.begin("solve:"+grp.name, -1, n/2)
			}
			res, wall := rig.solve(b, grp)
			if traced {
				rec.end(id)
			}
			if n == 0 {
				first[gi] = res
			}
			last[gi] = res
			if gi == 0 {
				inprocMs = append(inprocMs, ms(wall))
			} else {
				sockMs = append(sockMs, ms(wall))
			}
		}
		if traced {
			tracedMs = append(tracedMs, ms(time.Since(t0)))
		} else {
			plainMs = append(plainMs, ms(time.Since(t0)))
		}
		host.sample()
	}
	pairWall := sum(inprocMs)/1e3 + sum(sockMs)/1e3
	solves := float64(len(inprocMs) - 1) // counter differences span all solves but the first

	// Exact counts per solve, from the layers' own counters.
	perSolve := func(gi int, f func(r rankRes) float64) float64 {
		var t float64
		for r := range last[gi] {
			t += f(last[gi][r]) - f(first[gi][r])
		}
		return t / solves
	}
	rank0 := func(gi int, f func(r rankRes) float64) float64 {
		return (f(last[gi][0]) - f(first[gi][0])) / solves
	}
	b.set("par.allreduces_per_solve", rank0(0, func(r rankRes) float64 { return float64(r.allreduces) }))
	b.set("par.halo_bytes_per_solve", rank0(0, func(r rankRes) float64 { return float64(r.haloBytes) }))
	b.set("par.msgs_per_solve", perSolve(0, func(r rankRes) float64 { return float64(r.stats.Msgs) }))
	b.set("par.bytes_sent_per_solve", perSolve(0, func(r rankRes) float64 { return float64(r.stats.BytesSent) }))
	b.set("par.halo_overlap_frac", last[0][0].overlap)
	b.set("socket.wire_bytes_per_solve", perSolve(1, func(r rankRes) float64 { return float64(r.wire.BytesSent) }))
	b.set("ocean.cg_iters_per_solve", float64(rig.refIters))

	b.set("ocean.serial_solve_ms", median(serialMs))
	b.set("inproc_solve_ms_p50", median(inprocMs))
	b.set("socket_solve_ms_p50", median(sockMs))
	b.set("solves_per_s", float64(len(inprocMs)+len(sockMs))/pairWall)
	b.set("par.dist_over_serial_x", median(inprocMs)/median(serialMs))
	b.set("socket.mesh_connect_ms", ms(rig.meshConnect))
	b.set("trace.overhead_frac", median(tracedMs)/median(plainMs)-1)
	b.set("trace.spans_pw", float64(len(rec.spans)-len(serialMs))/float64(len(tracedMs)))
	b.set("trace.host_slowdown_x", host.slowdown())

	// The collectives in isolation, on the same live ranks.
	reps := sz.micro/50 + 1
	for _, iso := range []struct {
		grp    *rankGroup
		kind   int
		metric string
	}{
		{rig.inproc, reqAllreduce, "par.allreduce_us"},
		{rig.inproc, reqHalo, "par.halo_exchange_us"},
		{rig.sock, reqAllreduce, "socket.allreduce_us"},
		{rig.sock, reqHalo, "socket.halo_exchange_us"},
	} {
		res, err := iso.grp.do(rankReq{kind: iso.kind, reps: reps})
		if err != nil {
			b.fail("%s in isolation: %v", iso.metric, err)
		}
		b.set(iso.metric, float64(res[0].wall.Nanoseconds())/1e3/float64(reps))
	}
	isolateSched(b, rig.s.NOcean(), sz)
	b.set("grid.build_ms", median(msEach(3, func() { grid.New(grid.R2B(sz.cgLevel)) })))

	fmt.Fprintf(cfg.out, "dist_cg: %d serial solves, %d solve pairs (every other one traced), %d iterations per solve\n",
		len(serialMs), len(plainMs)+len(tracedMs), rig.refIters)
	rec.writeSelfTable(cfg.out)
	if cfg.traceOut != "" {
		if err := rec.writeChrome(cfg.traceOut); err != nil {
			b.fail("writing the trace: %v", err)
		}
	}
}
