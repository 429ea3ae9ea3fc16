package main

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"icoearth/internal/coupler"
)

// span is one recorded interval: what ran, when, and which span caused
// it. All spans of one operation share its window index.
type span struct {
	name       string
	start, end time.Duration // offsets from the recorder's epoch
	parent     int           // id (index in recorder.spans) of the causing span; -1 for a root
	window     int
	lane       int // display lane of the Chrome export: 0 caller, 1 GPU side, 2 CPU side
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder is the benchmark's own span recorder. It lives entirely in the
// benchmark: spans are kept in memory and written out after the run.
// Launch-level time inside a coupling window comes from the devices'
// launch hooks — the hook fires after every kernel body on the launching
// goroutine, so the span of a launch runs from the previous hook on that
// device (or the window start) to this hook. Coupler glue between
// launches therefore lands in the first launch of the next component.
type recorder struct {
	epoch time.Time
	spans []span
	// windows holds the durations of every recorded window and its sides.
	windows []windowTimes
	// dev holds the launches of the window in flight, one lane per device.
	// A lane is appended to only by the goroutine driving that device and
	// read by the caller after StepWindow has joined both sides.
	dev [2]devLane
}

// windowTimes is one recorded StepWindow: the whole window and its two
// concurrent sides, sides[0] the GPU side and sides[1] the CPU side.
type windowTimes struct {
	window time.Duration
	sides  [2]time.Duration
}

type devLane struct {
	last    time.Time
	pending []span
}

const (
	laneCaller = iota
	laneGPU
	laneCPU
)

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<15)}
	for i := range r.dev {
		r.dev[i].pending = make([]span, 0, 1024)
	}
	return r
}

// begin opens a span on the caller's lane and returns its id.
func (r *recorder) begin(name string, parent, window int) int {
	r.spans = append(r.spans, span{name: name, start: time.Since(r.epoch), parent: parent, window: window})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) { r.spans[id].end = time.Since(r.epoch) }

// around records f as one span.
func (r *recorder) around(name string, parent, window int, f func()) {
	id := r.begin(name, parent, window)
	f()
	r.end(id)
}

// hook returns the launch hook of one device lane.
func (r *recorder) hook(lane int) func(name string) {
	l := &r.dev[lane-laneGPU]
	return func(name string) {
		now := time.Now()
		l.pending = append(l.pending, span{name: name, start: l.last.Sub(r.epoch), end: now.Sub(r.epoch), lane: lane})
		l.last = now
	}
}

// attach and detach switch launch recording on and off between windows
// (never while launches are in flight, as SetLaunchHook requires).
func (r *recorder) attach(es *coupler.EarthSystem) {
	es.GPU.SetLaunchHook(r.hook(laneGPU))
	es.CPU.SetLaunchHook(r.hook(laneCPU))
}

func detach(es *coupler.EarthSystem) {
	es.GPU.SetLaunchHook(nil)
	es.CPU.SetLaunchHook(nil)
}

// stepWindow records one StepWindow as a window span with one child span
// per side and one grandchild per launch, and returns the window's
// duration. A side ends at its device's last hook in the window.
func (r *recorder) stepWindow(es *coupler.EarthSystem, parent, window int) (time.Duration, error) {
	wt := windowTimes{}
	t0 := time.Now()
	for i := range r.dev {
		r.dev[i].last = t0
		r.dev[i].pending = r.dev[i].pending[:0]
	}
	err := es.StepWindow()
	t1 := time.Now()
	win := len(r.spans)
	r.spans = append(r.spans, span{name: "window", start: t0.Sub(r.epoch), end: t1.Sub(r.epoch), parent: parent, window: window})
	for i, side := range []string{"gpu_side", "cpu_side"} {
		l := &r.dev[i]
		id := len(r.spans)
		r.spans = append(r.spans, span{name: side, start: t0.Sub(r.epoch), end: l.last.Sub(r.epoch),
			parent: win, window: window, lane: laneGPU + i})
		for _, s := range l.pending {
			s.parent, s.window = id, window
			r.spans = append(r.spans, s)
		}
		wt.sides[i] = l.last.Sub(t0)
	}
	wt.window = t1.Sub(t0)
	r.windows = append(r.windows, wt)
	return wt.window, err
}

// totals returns the summed duration and the count of the spans of each
// name.
func (r *recorder) totals() (map[string]time.Duration, map[string]int) {
	dur, n := map[string]time.Duration{}, map[string]int{}
	for _, s := range r.spans {
		dur[s.name] += s.dur()
		n[s.name]++
	}
	return dur, n
}

// layerOf maps a span name to the repository module it is charged to.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "dycore:"), name == "transport", name == "physics", name == "radiation":
		return "atmos"
	case strings.HasPrefix(name, "land:"), strings.HasPrefix(name, "veg:"):
		return "land"
	case strings.HasPrefix(name, "ocean:"), name == "solve:serial":
		return "ocean"
	case strings.HasPrefix(name, "bgc:"):
		return "bgc"
	case strings.HasPrefix(name, "restart:"):
		return "restart"
	case name == "solve:inproc":
		return "par"
	case name == "solve:socket":
		return "socket"
	}
	return "coupler" // window, the two sides, health check, snapshot, apply
}

// selfTimes returns each span's self time: its duration minus the part of
// it its child spans cover (children on different lanes may overlap, so
// the cover is the union of their intervals).
func (r *recorder) selfTimes() []time.Duration {
	children := make([][]int, len(r.spans))
	for id, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], id)
		}
	}
	self := make([]time.Duration, len(r.spans))
	for id, s := range r.spans {
		kids := children[id]
		sort.Slice(kids, func(i, j int) bool { return r.spans[kids[i]].start < r.spans[kids[j]].start })
		covered, edge := time.Duration(0), s.start
		for _, k := range kids {
			c := r.spans[k]
			if c.end <= edge {
				continue
			}
			if c.start > edge {
				edge = c.start
			}
			covered += c.end - edge
			edge = c.end
		}
		self[id] = s.dur() - covered
	}
	return self
}

// writeSelfTable prints the self time of every layer, summed over the
// recorded spans, with its share of the recorded root time.
func (r *recorder) writeSelfTable(out io.Writer) {
	self := r.selfTimes()
	byLayer, count := map[string]time.Duration{}, map[string]int{}
	var roots time.Duration
	for id, s := range r.spans {
		l := layerOf(s.name)
		byLayer[l] += self[id]
		count[l]++
		if s.parent < 0 {
			roots += s.dur()
		}
	}
	fmt.Fprintf(out, "\nself time per layer over %d recorded spans (%.1f ms of root spans)\n", len(r.spans), ms(roots))
	fmt.Fprintf(out, "%-10s %8s %12s %7s\n", "layer", "spans", "self_ms", "share")
	for _, l := range slices.Sorted(maps.Keys(byLayer)) {
		share := 0.0
		if roots > 0 {
			share = float64(byLayer[l]) / float64(roots)
		}
		fmt.Fprintf(out, "%-10s %8d %12.3f %6.1f%%\n", l, count[l], ms(byLayer[l]), 100*share)
	}
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microseconds), loadable in chrome://tracing or Perfetto. Each
// event carries its span id, parent id and window index in args.
func (r *recorder) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "[")
	for id, s := range r.spans {
		if id > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"window\":%d}}",
			s.name, s.lane, float64(s.start.Nanoseconds())/1e3, float64(s.dur().Nanoseconds())/1e3, id, s.parent, s.window)
	}
	fmt.Fprint(w, "\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
