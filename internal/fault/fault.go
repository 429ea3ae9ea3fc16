// Package fault is a deterministic, seeded fault-injection harness for
// chaos-testing the coupled Earth system. A Plan lists faults (kind +
// coupling window + optional target/argument); an Injector arms them
// through the hook seams that par.Comm, exec.Device and the coupler's
// Supervisor expose — rank crashes, message drop/delay, straggler devices,
// stalls, NaN corruption of prognostic fields and checkpoint corruption —
// without the production code paying anything when no injector is
// installed. Every fault fires at most once (so rollback-and-retry
// recovers), every firing is logged, and everything derives from one seed,
// making chaos runs exactly reproducible.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"icoearth/internal/par"
	"icoearth/internal/trace"
)

// RNG is a splitmix64 generator: tiny, seedable and stable across Go
// versions (unlike math/rand's default source), which keeps chaos runs
// reproducible from their seed alone.
type RNG struct{ s uint64 }

// NewRNG returns a generator for the given seed.
func NewRNG(seed uint64) *RNG { return &RNG{s: seed} }

// Uint64 returns the next value.
func (r *RNG) Uint64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// Kind enumerates the injectable fault types.
type Kind int

const (
	// Crash panics inside a kernel launch — the analogue of losing a rank
	// or device mid-window.
	Crash Kind = iota
	// Stall sleeps (wall clock) inside a kernel launch — a straggler that
	// the supervisor's watchdog must catch. Finite, so the window stays
	// joinable.
	Stall
	// NaN writes NaN into a prognostic field — a numerical blowup that the
	// health check must catch.
	NaN
	// Slowdown stretches one window's simulated kernel durations on the
	// GPU device — a degraded straggler that hurts τ but not correctness.
	Slowdown
	// CkptTruncate cuts a just-written checkpoint file in half.
	CkptTruncate
	// CkptBitFlip flips one bit in a just-written checkpoint file.
	CkptBitFlip
	// MsgDrop silently discards one par message.
	MsgDrop
	// MsgDelay reorders one par message behind the next send.
	MsgDelay
)

var kindNames = map[Kind]string{
	Crash: "crash", Stall: "stall", NaN: "nan", Slowdown: "slow",
	CkptTruncate: "ckpttrunc", CkptBitFlip: "ckptflip",
	MsgDrop: "drop", MsgDelay: "delay",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Fault is one planned injection.
type Fault struct {
	Kind   Kind
	Window int // coupling window in which it fires
	// Target narrows where the fault lands: a kernel-name prefix for
	// Crash/Stall (empty = first kernel of the window), a field name like
	// "atm.qv" for NaN.
	Target   string
	Factor   float64       // Slowdown multiplier
	StallFor time.Duration // Stall duration (wall clock)
}

func (f Fault) String() string {
	s := fmt.Sprintf("%s@%d", f.Kind, f.Window)
	switch {
	case f.Kind == Stall:
		s += ":" + f.StallFor.String()
	case f.Kind == Slowdown:
		s += ":" + strconv.FormatFloat(f.Factor, 'g', -1, 64)
	case f.Target != "":
		s += ":" + f.Target
	}
	return s
}

// Plan is an ordered list of faults.
type Plan []Fault

func (p Plan) String() string {
	parts := make([]string, len(p))
	for i, f := range p {
		parts[i] = f.String()
	}
	return strings.Join(parts, ";")
}

// ParseChaosSpec parses a -chaos flag value of the form
//
//	seed=N[,plan=crash@3;nan@5:atm.qv;stall@2:50ms;ckptflip@4;slow@6:3]
//
// Everything after "plan=" is the plan (entries separated by semicolons).
// An absent plan returns an empty Plan; the caller typically substitutes
// AutoPlan. seed= must appear exactly once. Returns the seed, the plan,
// and any parse error.
func ParseChaosSpec(spec string) (uint64, Plan, error) {
	var seed uint64
	var plan Plan
	seenSeed := false
	rest := spec
	for rest != "" {
		if strings.HasPrefix(rest, "plan=") {
			p, err := ParsePlan(rest[len("plan="):])
			if err != nil {
				return 0, nil, err
			}
			plan = p
			rest = ""
			break
		}
		kv := rest
		if i := strings.IndexByte(rest, ','); i >= 0 {
			kv, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return 0, nil, fmt.Errorf("fault: bad chaos option %q (want key=value)", kv)
		}
		switch k {
		case "seed":
			if seenSeed {
				return 0, nil, fmt.Errorf("fault: chaos spec %q repeats seed=", spec)
			}
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return 0, nil, fmt.Errorf("fault: bad seed %q: %v", v, err)
			}
			seed, seenSeed = n, true
		default:
			return 0, nil, fmt.Errorf("fault: unknown chaos option %q", k)
		}
	}
	if !seenSeed {
		return 0, nil, fmt.Errorf("fault: chaos spec %q has no seed=", spec)
	}
	return seed, plan, nil
}

// ParsePlan parses "kind@window[:arg][;...]" entries. A stall lasts a
// duration ≥ 0; a slowdown factor is finite and > 1 (it scales the GPU
// device clock).
func ParsePlan(s string) (Plan, error) {
	var plan Plan
	for _, entry := range strings.Split(s, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		kindStr, rest, ok := strings.Cut(entry, "@")
		if !ok {
			return nil, fmt.Errorf("fault: bad plan entry %q (want kind@window[:arg])", entry)
		}
		winStr, arg, _ := strings.Cut(rest, ":")
		w, err := strconv.Atoi(winStr)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("fault: bad window in %q", entry)
		}
		f := Fault{Window: w}
		found := false
		for k := Crash; k <= MsgDelay; k++ {
			if kindNames[k] == kindStr {
				f.Kind, found = k, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("fault: unknown fault kind %q in %q", kindStr, entry)
		}
		switch f.Kind {
		case Stall:
			d := 50 * time.Millisecond
			if arg != "" {
				if d, err = time.ParseDuration(arg); err != nil || d < 0 {
					return nil, fmt.Errorf("fault: bad stall duration in %q", entry)
				}
			}
			f.StallFor = d
		case Slowdown:
			f.Factor = 3
			if arg != "" {
				// Written so NaN fails: it compares false against 1.
				if f.Factor, err = strconv.ParseFloat(arg, 64); err != nil || !(f.Factor > 1) || math.IsInf(f.Factor, 1) {
					return nil, fmt.Errorf("fault: bad slowdown factor in %q", entry)
				}
			}
		default:
			f.Target = arg
		}
		plan = append(plan, f)
	}
	return plan, nil
}

// AutoPlan derives a small random plan for a run of the given window
// count: two or three faults from the kinds a supervised single-process
// run can recover from, at random interior windows.
func AutoPlan(rng *RNG, windows int) Plan {
	kinds := []Kind{Crash, NaN, Slowdown, CkptBitFlip, CkptTruncate}
	span := windows - 1
	if span < 1 {
		span = 1
	}
	n := 2 + rng.Intn(2)
	plan := make(Plan, 0, n)
	ckptFaults := 0
	for i := 0; i < n; i++ {
		f := Fault{Kind: kinds[rng.Intn(len(kinds))], Window: 1 + rng.Intn(span)}
		// The supervisor keeps two checkpoint generations; corrupting more
		// than one per plan can wipe every intact generation and make the
		// run unsurvivable by construction. Auto plans must be survivable,
		// so cap checkpoint corruption at one fault and redraw the rest as
		// crashes.
		if f.Kind == CkptBitFlip || f.Kind == CkptTruncate {
			ckptFaults++
			if ckptFaults > 1 {
				f.Kind = Crash
			}
		}
		switch f.Kind {
		case Slowdown:
			f.Factor = float64(2 + rng.Intn(3))
		case NaN:
			f.Target = "atm.qv"
		case Crash:
			// Pin crashes to the dycore stream so the firing kernel does not
			// depend on which side launches first.
			f.Target = "dycore:"
		}
		plan = append(plan, f)
	}
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].Window < plan[j].Window })
	return plan
}

// Event records one fault that actually fired.
type Event struct {
	Window int    `json:"window"`
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// Injector holds a plan, the current coupling window, and the fired state
// of every fault. All methods are safe for concurrent use — hooks fire on
// model goroutines while the supervisor advances the window.
type Injector struct {
	mu     sync.Mutex
	plan   Plan
	rng    *RNG
	window int
	fired  []bool
	events []Event
	tk     *trace.Track // nil unless SetTrace attached a run trace
}

// NewInjector builds an injector for the plan, with all randomness (fault
// placement inside fields/files) derived from seed.
func NewInjector(seed uint64, plan Plan) *Injector {
	return &Injector{plan: plan, rng: NewRNG(seed), fired: make([]bool, len(plan))}
}

// SetTrace records every firing as an instant event on the given track
// (typically tracer.Track("fault", 0)); nil detaches.
func (in *Injector) SetTrace(t *trace.Track) {
	in.mu.Lock()
	in.tk = t
	in.mu.Unlock()
}

// SetWindow tells the injector which coupling window is about to run.
func (in *Injector) SetWindow(w int) {
	in.mu.Lock()
	in.window = w
	in.mu.Unlock()
}

// Events returns a copy of the firing log.
func (in *Injector) Events() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.events...)
}

// AllFired reports whether every planned fault has fired.
func (in *Injector) AllFired() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, f := range in.fired {
		if !f {
			return false
		}
	}
	return true
}

// take claims the first unfired fault at the current window that the
// match predicate accepts, marking it fired and logging detail.
func (in *Injector) take(match func(Fault) bool, detail func(Fault) string) (Fault, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.takeAt(in.window, match, detail)
}

// takeAt is take at window w, which leaves the current window alone;
// in.mu must be held.
func (in *Injector) takeAt(w int, match func(Fault) bool, detail func(Fault) string) (Fault, bool) {
	for i, f := range in.plan {
		if in.fired[i] || f.Window != w || !match(f) {
			continue
		}
		in.fired[i] = true
		in.events = append(in.events, Event{Window: w, Kind: f.Kind.String(), Detail: detail(f)})
		in.tk.InstantArg("fault:"+f.Kind.String(), "window", int64(w))
		return f, true
	}
	return Fault{}, false
}

// MsgHook returns a par message hook that applies the plan's MsgDrop and
// MsgDelay faults (each once, at or after its window — par programs have
// no window clock of their own, so SetWindow gates them).
func (in *Injector) MsgHook() par.MsgHook {
	return func(from, to, tag, n int) par.MsgFate {
		f, ok := in.take(
			func(f Fault) bool { return f.Kind == MsgDrop || f.Kind == MsgDelay },
			func(f Fault) string {
				return fmt.Sprintf("%s message %d->%d tag %d (%d values)", f.Kind, from, to, tag, n)
			})
		if !ok {
			return par.DeliverMsg
		}
		if f.Kind == MsgDrop {
			return par.DropMsg
		}
		return par.DelayMsg
	}
}
