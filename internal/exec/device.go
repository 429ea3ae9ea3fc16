// Package exec provides the kernel execution runtime that stands in for the
// GPU/CPU execution environment of the paper. Kernels are real Go closures
// that perform the model's numerics; in addition to running them, the
// runtime charges a simulated clock using a roofline cost model (memory
// traffic / sustained bandwidth, flops / peak, per-launch latency) and an
// energy model, so that a laptop-scale run yields the timing signals — launch
// overhead, bandwidth saturation, graph-replay speedups, power draw — that
// drive the paper's performance analysis.
//
// The central substitution (see DESIGN.md): the paper's Hopper GPU and Grace
// CPU become Device values with the published bandwidth/latency/power
// parameters; OpenACC kernel launches become Launch calls; CUDA Graphs
// become Graph capture/replay. The observable behaviour matches what the
// paper reports: many tiny kernels are launch-latency dominated until
// captured into a graph, large stencil kernels are bandwidth bound, and the
// superchip's shared power budget rarely throttles memory-bound work.
package exec

import (
	"fmt"
	"sort"
	"sync"

	"icoearth/internal/sched"
	"icoearth/internal/trace"
)

// DeviceSpec holds the hardware parameters of one execution device. All
// bandwidths are bytes/second, times in seconds, powers in watts.
type DeviceSpec struct {
	Name string

	// MemBW is the peak sustained DRAM bandwidth.
	MemBW float64
	// PeakFlops is the double-precision peak.
	PeakFlops float64
	// LaunchLatency is charged per kernel launch (the CUDA launch
	// overhead); zero for host CPUs.
	LaunchLatency float64
	// HalfSatBytes is the per-kernel byte volume at which the effective
	// bandwidth reaches half of MemBW; models GPU underutilisation for
	// small working sets (too few cells per GPU — the paper's strong
	// scaling limit at ~10 800 cells/GPU).
	HalfSatBytes float64
	// GraphReplayLatency is charged once per graph replay.
	GraphReplayLatency float64

	// Power model: draw = PowerIdle + util·(PowerMax−PowerIdle), where util
	// is the achieved fraction of peak bandwidth.
	PowerIdle float64
	PowerMax  float64

	// Cores is informational (CPU devices).
	Cores int
}

// EffBandwidth returns the achieved bandwidth for a kernel moving the given
// number of bytes: a latency–throughput saturation curve.
func (s DeviceSpec) EffBandwidth(bytes float64) float64 {
	if bytes <= 0 {
		return s.MemBW
	}
	return s.MemBW * bytes / (bytes + s.HalfSatBytes)
}

// KernelTime returns the modelled execution time of a kernel body
// (excluding launch latency): the roofline maximum of the memory and
// compute times.
func (s DeviceSpec) KernelTime(bytes, flops float64) float64 {
	var tMem, tFlop float64
	if bytes > 0 {
		tMem = bytes / s.EffBandwidth(bytes)
	}
	if flops > 0 && s.PeakFlops > 0 {
		tFlop = flops / s.PeakFlops
	}
	if tFlop > tMem {
		return tFlop
	}
	return tMem
}

// Kernel describes one unit of device work. Run may be nil for
// accounting-only kernels (used by the performance model at paper scale
// where the fields do not exist in memory).
type Kernel struct {
	Name  string
	Bytes float64 // DRAM traffic in bytes
	Flops float64
	Run   func()

	// Reads and Writes name the fields the kernel touches; graph capture
	// uses them to build the dependency DAG that allows independent kernels
	// (e.g. per-PFT vegetation updates) to overlap on replay.
	Reads  []string
	Writes []string
}

// KernelStats accumulates per-kernel-name timing.
type KernelStats struct {
	Count   int64
	Bytes   float64
	Seconds float64
}

// Device executes kernels and accounts simulated time and energy.
// Devices are not safe for concurrent use by multiple goroutines; each
// component owns its device (as each MPI rank owns its GPU in the paper).
type Device struct {
	Spec DeviceSpec

	// mu guards the clock, energy and statistics so that two components
	// sharing one device (e.g. a non-heterogeneous mapping where the
	// ocean serialises with the atmosphere) can launch concurrently.
	// Graph capture is not concurrency-safe: a capturing device must be
	// driven by one goroutine.
	mu sync.Mutex

	simTime   float64
	energy    float64
	launches  int64
	bytes     float64
	flops     float64
	perKernel map[string]*KernelStats

	// Power cap imposed by the superchip's shared TDP; 0 means uncapped.
	// When the device would draw more than the cap, execution is scaled
	// down proportionally (frequency throttling).
	powerCap float64

	// streamBusy holds outstanding per-stream work since the last Sync.
	streamBusy map[int]float64

	capturing bool
	captured  []Kernel

	// slow is a straggler multiplier on every kernel duration (0 or 1 =
	// nominal); hook, when non-nil, runs after each kernel body on the
	// launching goroutine. Both are fault-injection seams and cost one
	// branch when unused.
	slow float64
	hook func(name string)

	// track records launches, graph replays and stream syncs when tracing
	// is attached (nil otherwise — one branch per launch).
	track *trace.Track
}

// NewDevice creates a device with zeroed clocks.
func NewDevice(spec DeviceSpec) *Device {
	return &Device{Spec: spec, perKernel: make(map[string]*KernelStats)}
}

// SetPowerCap limits the device's power draw (watts); kernels requiring
// more are throttled. Zero removes the cap.
func (d *Device) SetPowerCap(watts float64) { d.powerCap = watts }

// SetSlowdown makes the device a straggler: every kernel duration is
// multiplied by factor (>1 slows the simulated clock, the analogue of a
// thermally-throttled or failing chip). Values <= 1 restore nominal speed.
func (d *Device) SetSlowdown(factor float64) {
	d.mu.Lock()
	d.slow = factor
	d.mu.Unlock()
}

// SetLaunchHook installs f to run after each kernel body executes, both on
// eager launches and inside graph replays, on the launching goroutine.
// Fault injectors use it to stall, crash, or corrupt kernel outputs at a
// precise point in the execution stream; nil (the default) disables it.
// Like capture, the hook must be installed while no launches are in
// flight.
func (d *Device) SetLaunchHook(f func(name string)) { d.hook = f }

// PowerCap returns the current cap (0 = uncapped).
func (d *Device) PowerCap() float64 { return d.powerCap }

// AttachTrace puts the device's launches on an "exec:<name>" track of tr.
// Must be attached while no launches are in flight; a nil tracer detaches.
func (d *Device) AttachTrace(tr *trace.Tracer) {
	d.track = tr.Track("exec:"+d.Spec.Name, 0)
}

// Launch executes (or captures) one kernel. Outside capture the kernel's
// Run closure executes immediately and the simulated clock advances by
// launch latency plus the roofline time.
func (d *Device) Launch(k Kernel) {
	if d.capturing {
		d.captured = append(d.captured, k)
		return
	}
	t0 := d.track.Start()
	if k.Run != nil {
		k.Run()
	}
	if d.hook != nil {
		d.hook(k.Name)
	}
	dur := d.throttled(d.Spec.KernelTime(k.Bytes, k.Flops))
	d.account(k, d.Spec.LaunchLatency+dur, dur)
	// The nil guard is load-bearing: the span name concatenation must not
	// be evaluated (it allocates) when tracing is off — the disabled
	// launch path is allocation-free by contract (BenchmarkStepWindow).
	if d.track != nil {
		if d.Spec.Cores > 0 {
			// CPU-side launches report the effective parallel width of the
			// worker pool their kernel bodies dispatch onto.
			d.track.EndArg("launch:"+k.Name, t0, "workers", int64(sched.Workers()))
		} else {
			d.track.EndArg("launch:"+k.Name, t0, "bytes", int64(k.Bytes))
		}
	}
}

// throttled scales a duration up when the power the kernel wants exceeds
// the cap, and applies the straggler slowdown.
func (d *Device) throttled(dur float64) float64 {
	if d.slow > 1 {
		dur *= d.slow
	}
	if d.powerCap <= 0 || dur <= 0 {
		return dur
	}
	want := d.kernelPower()
	if want <= d.powerCap {
		return dur
	}
	return dur * want / d.powerCap
}

// kernelPower is the draw while running a bandwidth-saturating kernel.
func (d *Device) kernelPower() float64 {
	return d.Spec.PowerIdle + 1.0*(d.Spec.PowerMax-d.Spec.PowerIdle)
}

func (d *Device) account(k Kernel, wall, active float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.simTime += wall
	d.launches++
	d.bytes += k.Bytes
	d.flops += k.Flops
	util := 0.0
	if wall > 0 {
		util = active / wall
	}
	p := d.Spec.PowerIdle + util*(d.Spec.PowerMax-d.Spec.PowerIdle)
	if d.powerCap > 0 && p > d.powerCap {
		p = d.powerCap
	}
	d.energy += p * wall
	st := d.perKernel[k.Name]
	if st == nil {
		st = &KernelStats{}
		d.perKernel[k.Name] = st
	}
	st.Count++
	st.Bytes += k.Bytes
	st.Seconds += wall
}

// AdvanceIdle advances the simulated clock without work (waiting at a
// coupler synchronisation point), charging idle power.
func (d *Device) AdvanceIdle(seconds float64) {
	if seconds <= 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.simTime += seconds
	d.energy += d.Spec.PowerIdle * seconds
}

// SimTime returns the simulated wall-clock seconds consumed so far.
func (d *Device) SimTime() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.simTime
}

// Energy returns the simulated energy in joules.
func (d *Device) Energy() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.energy
}

// Launches returns the number of kernel launches (graph replays count the
// kernels they contain once at capture, not per replay).
func (d *Device) Launches() int64 { return d.launches }

// BytesMoved returns total modelled DRAM traffic.
func (d *Device) BytesMoved() float64 { return d.bytes }

// Stats returns a copy of the per-kernel statistics, sorted by name.
func (d *Device) Stats() []NamedStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]NamedStats, 0, len(d.perKernel))
	for name, st := range d.perKernel {
		out = append(out, NamedStats{Name: name, KernelStats: *st})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NamedStats pairs a kernel name with its accumulated stats.
type NamedStats struct {
	Name string
	KernelStats
}

// Reset zeroes clocks, energy and statistics (not the power cap).
func (d *Device) Reset() {
	d.simTime = 0
	d.energy = 0
	d.launches = 0
	d.bytes = 0
	d.flops = 0
	d.perKernel = make(map[string]*KernelStats)
}

// SustainedBandwidth returns the average achieved DRAM bandwidth over all
// executed kernels (bytes moved / busy seconds), the quantity plotted in
// the paper's §5.2 bandwidth figure.
func (d *Device) SustainedBandwidth() float64 {
	if d.simTime == 0 {
		return 0
	}
	return d.bytes / d.simTime
}

// BeginCapture switches the device into graph capture mode: subsequent
// Launch calls record kernels instead of executing them.
func (d *Device) BeginCapture() {
	if d.capturing {
		panic("exec: nested capture")
	}
	d.capturing = true
	d.captured = nil
}

// EndCapture finishes capture and returns the recorded graph.
func (d *Device) EndCapture() (*Graph, error) {
	if !d.capturing {
		return nil, fmt.Errorf("exec: EndCapture without BeginCapture")
	}
	d.capturing = false
	g := &Graph{device: d, kernels: d.captured}
	d.captured = nil
	g.buildLevels()
	label := "empty"
	if len(g.kernels) > 0 {
		label = fmt.Sprintf("%s+%d", g.kernels[0].Name, len(g.kernels)-1)
	}
	g.name, g.span = "graph:"+label, "replay:"+label
	return g, nil
}

// Graph is a captured kernel sequence, the analogue of a CUDA Graph: on
// replay the kernels execute without per-launch latency, and kernels with
// no data dependencies overlap (their modelled durations combine as the
// max within each dependency level rather than the sum).
type Graph struct {
	device  *Device
	kernels []Kernel
	levels  [][]int // indices into kernels, topological levels
	// name is the replay's statistics key and span its trace span, both
	// built at capture so that a replay allocates nothing.
	name, span string
}

// buildLevels computes dependency levels with a simple last-writer
// analysis over the declared Reads/Writes sets: a kernel depends on the
// latest earlier kernel that wrote any field it reads or writes
// (RAW/WAW/WAR through program order).
func (g *Graph) buildLevels() {
	level := make([]int, len(g.kernels))
	lastWrite := map[string]int{}  // field -> kernel index of last writer
	lastAccess := map[string]int{} // field -> kernel index of last reader/writer
	maxLevel := 0
	for i, k := range g.kernels {
		lv := 0
		dep := func(j int) {
			if j >= 0 && level[j]+1 > lv {
				lv = level[j] + 1
			}
		}
		for _, f := range k.Reads {
			if w, ok := lastWrite[f]; ok {
				dep(w)
			}
		}
		for _, f := range k.Writes {
			if a, ok := lastAccess[f]; ok {
				dep(a)
			}
		}
		level[i] = lv
		if lv > maxLevel {
			maxLevel = lv
		}
		for _, f := range k.Writes {
			lastWrite[f] = i
			lastAccess[f] = i
		}
		for _, f := range k.Reads {
			lastAccess[f] = i
		}
	}
	g.levels = make([][]int, maxLevel+1)
	for i := range g.kernels {
		g.levels[level[i]] = append(g.levels[level[i]], i)
	}
}

// NumKernels returns the number of captured kernels.
func (g *Graph) NumKernels() int { return len(g.kernels) }

// NumLevels returns the depth of the dependency DAG.
func (g *Graph) NumLevels() int { return len(g.levels) }

// Replay executes all captured kernels in program order (so results are
// bit-identical to eager launches) while charging the overlapped,
// latency-free graph cost to the simulated clock.
func (g *Graph) Replay() {
	d := g.device
	if d.capturing {
		panic("exec: replay during capture")
	}
	var wall float64
	for _, lvl := range g.levels {
		var maxDur float64
		for _, i := range lvl {
			k := g.kernels[i]
			dur := d.throttled(d.Spec.KernelTime(k.Bytes, k.Flops))
			if dur > maxDur {
				maxDur = dur
			}
		}
		wall += maxDur
	}
	wall += d.Spec.GraphReplayLatency
	// Execute bodies in program order for determinism.
	t0 := d.track.Start()
	var bytes, flops float64
	for _, k := range g.kernels {
		if k.Run != nil {
			k.Run()
		}
		if d.hook != nil {
			d.hook(k.Name)
		}
		bytes += k.Bytes
		flops += k.Flops
	}
	d.account(Kernel{Name: g.name, Bytes: bytes, Flops: flops}, wall, wall)
	d.track.EndArg(g.span, t0, "kernels", int64(len(g.kernels)))
}

// ParallelFor runs body(i) for i in [0,n) with up to workers-way
// parallelism; it is the runtime's analogue of an OpenMP parallel loop on
// CPU devices. With workers <= 1 (or a loop too short to split) the loop
// runs inline. The iterations execute on the shared persistent worker
// pool (internal/sched) rather than per-call goroutines, so repeated
// launches spawn nothing in steady state.
func ParallelFor(n, workers int, body func(i int)) {
	if workers <= 1 || n < 2*workers {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	sched.RunWidth(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}
