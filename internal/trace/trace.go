// Package trace is the run-tracing layer of icoearth: a low-overhead
// structured tracer that makes every coupled window observable. The hot
// layers (par sends and collectives, exec kernel launches, coupler
// windows, the supervisor's checkpoint/rollback machinery, restart I/O,
// injected faults) record spans, instant events and monotonic counters
// onto per-rank ring-buffered tracks; the result exports as Chrome
// trace-event JSON (chrome://tracing / Perfetto) plus a text summary, so
// a chaos run's crash→rollback→retry timeline is a picture instead of a
// log grep.
//
// The design constraint is the disabled path: production runs carry the
// instrumentation points permanently, so every recording method is
// nil-safe — a nil *Tracer, *Track or *Counter no-ops after a single
// predictable branch, with zero allocations. A layer holds its Track
// pointer (nil when tracing is off) and calls
//
//	t0 := tk.Start()
//	... work ...
//	tk.EndArg("halo:exchange", t0, "bytes", n)
//
// unconditionally; BenchmarkStepWindow's trace_overhead_frac in the root
// package measures the disabled pattern at well under 1% of a coupled
// window (the repo benchmark's trace.overhead_frac is the same bound for
// its own span recorder).
//
// Ring buffers bound memory: each track keeps the newest Capacity events
// (oldest overwritten), while per-name span aggregates and counter totals
// are accumulated outside the ring, so summaries and cross-checks against
// par.Stats stay exact even when the event window has wrapped.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// DefaultCapacity is the per-track event ring size.
const DefaultCapacity = 1 << 14

// Tracer owns the tracks of one run. The zero value is not usable; call
// New. A nil *Tracer is the disabled tracer: Track returns nil and every
// downstream call no-ops.
type Tracer struct {
	start time.Time

	mu     sync.Mutex
	tracks []*Track
	cap    int
}

// New creates an enabled tracer whose clock starts now.
func New() *Tracer {
	return &Tracer{start: time.Now(), cap: DefaultCapacity}
}

// SetCapacity sets the ring size for tracks created afterwards.
func (t *Tracer) SetCapacity(n int) {
	if t == nil || n < 1 {
		return
	}
	t.mu.Lock()
	t.cap = n
	t.mu.Unlock()
}

// Now returns nanoseconds since the tracer started (0 when disabled).
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.start).Nanoseconds()
}

// Track returns the track for (proc, rank), creating it on first use.
// proc names the layer ("par", "exec:H100", "supervisor"); rank
// distinguishes parallel lanes within it and renders as the thread id.
// Returns nil on a nil tracer.
func (t *Tracer) Track(proc string, rank int) *Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, k := range t.tracks {
		if k.Proc == proc && k.Rank == rank {
			return k
		}
	}
	k := &Track{
		tr:    t,
		Proc:  proc,
		Rank:  rank,
		ring:  make([]Event, t.cap),
		spans: map[string]*SpanAgg{},
	}
	t.tracks = append(t.tracks, k)
	return k
}

// Tracks returns a snapshot of all tracks, ordered by (proc, rank).
func (t *Tracer) Tracks() []*Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]*Track(nil), t.tracks...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Proc != out[j].Proc {
			return out[i].Proc < out[j].Proc
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}

// EventCount returns the total number of events recorded across all
// tracks (including events since overwritten in their rings).
func (t *Tracer) EventCount() int64 {
	if t == nil {
		return 0
	}
	var n int64
	for _, k := range t.Tracks() {
		k.mu.Lock()
		n += k.total
		k.mu.Unlock()
	}
	return n
}

// Event phases, mirroring the Chrome trace-event "ph" field.
const (
	PhaseSpan    = 'X' // complete event: TS..TS+Dur
	PhaseInstant = 'i'
	PhaseCounter = 'C'
)

// Event is one recorded trace event. Arg/ArgKey carry at most one
// numeric argument (byte counts, window numbers, counter values).
type Event struct {
	Name   string
	Phase  byte
	TS     int64 // ns since tracer start
	Dur    int64 // span duration (ns)
	ArgKey string
	Arg    int64
}

// SpanAgg accumulates per-name span totals outside the ring.
type SpanAgg struct {
	Count   int64
	TotalNs int64
}

// Track is one timeline lane. All methods are safe for concurrent use
// and nil-safe (a nil *Track records nothing).
type Track struct {
	tr   *Tracer
	Proc string
	Rank int

	mu       sync.Mutex
	ring     []Event
	next     int
	total    int64
	spans    map[string]*SpanAgg
	counters []*Counter
}

// Start returns the current trace clock for a span about to begin
// (0 when disabled). Pair with End/EndArg.
func (k *Track) Start() int64 {
	if k == nil {
		return 0
	}
	return k.tr.Now()
}

// End records a complete span from start (a Start() result) to now.
func (k *Track) End(name string, start int64) {
	if k == nil {
		return
	}
	k.endArg(name, start, "", 0)
}

// EndArg is End with one named numeric argument.
func (k *Track) EndArg(name string, start int64, key string, v int64) {
	if k == nil {
		return
	}
	k.endArg(name, start, key, v)
}

func (k *Track) endArg(name string, start int64, key string, v int64) {
	now := k.tr.Now()
	k.mu.Lock()
	a := k.spans[name]
	if a == nil {
		a = &SpanAgg{}
		k.spans[name] = a
	}
	a.Count++
	a.TotalNs += now - start
	k.push(Event{Name: name, Phase: PhaseSpan, TS: start, Dur: now - start, ArgKey: key, Arg: v})
	k.mu.Unlock()
}

// Instant records a point event.
func (k *Track) Instant(name string) {
	if k == nil {
		return
	}
	k.instantArg(name, "", 0)
}

// InstantArg is Instant with one named numeric argument.
func (k *Track) InstantArg(name, key string, v int64) {
	if k == nil {
		return
	}
	k.instantArg(name, key, v)
}

func (k *Track) instantArg(name, key string, v int64) {
	ts := k.tr.Now()
	k.mu.Lock()
	k.push(Event{Name: name, Phase: PhaseInstant, TS: ts, ArgKey: key, Arg: v})
	k.mu.Unlock()
}

// push appends into the ring; caller holds k.mu.
func (k *Track) push(e Event) {
	k.ring[k.next] = e
	k.next = (k.next + 1) % len(k.ring)
	k.total++
}

// Events returns the ring's surviving events in chronological order.
func (k *Track) Events() []Event {
	if k == nil {
		return nil
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.total < int64(len(k.ring)) {
		return append([]Event(nil), k.ring[:k.next]...)
	}
	out := make([]Event, 0, len(k.ring))
	out = append(out, k.ring[k.next:]...)
	out = append(out, k.ring[:k.next]...)
	return out
}

// Spans returns a copy of the per-name span aggregates.
func (k *Track) Spans() map[string]SpanAgg {
	if k == nil {
		return nil
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make(map[string]SpanAgg, len(k.spans))
	for name, a := range k.spans {
		out[name] = *a
	}
	return out
}

// Counter returns the named monotonic counter on this track, creating it
// on first use. Returns nil on a nil track.
func (k *Track) Counter(name string) *Counter {
	if k == nil {
		return nil
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, c := range k.counters {
		if c.Name == name {
			return c
		}
	}
	c := &Counter{k: k, Name: name}
	k.counters = append(k.counters, c)
	return c
}

// CounterValue returns the named counter's current total (0 if absent).
func (k *Track) CounterValue(name string) int64 {
	if k == nil {
		return 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, c := range k.counters {
		if c.Name == name {
			return c.v
		}
	}
	return 0
}

// Counters returns a snapshot of the track's counter totals.
func (k *Track) Counters() map[string]int64 {
	if k == nil {
		return nil
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make(map[string]int64, len(k.counters))
	for _, c := range k.counters {
		out[c.Name] = c.v
	}
	return out
}

// Counter is a cumulative counter on a track. The total survives ring
// wrap; each Add also records a 'C' event sampling the new total so the
// Chrome timeline shows the counter as a graph.
type Counter struct {
	k    *Track
	Name string
	v    int64 // guarded by k.mu
}

// Add adds delta to the counter (nil-safe, no-op when disabled).
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	ts := c.k.tr.Now()
	c.k.mu.Lock()
	c.v += delta
	c.k.push(Event{Name: c.Name, Phase: PhaseCounter, TS: ts, Arg: c.v})
	c.k.mu.Unlock()
}

// Value returns the counter's current total (0 when disabled).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	c.k.mu.Lock()
	defer c.k.mu.Unlock()
	return c.v
}

// label renders the track identity used by the text summary.
func (k *Track) label() string {
	return fmt.Sprintf("%s/%d", k.Proc, k.Rank)
}
