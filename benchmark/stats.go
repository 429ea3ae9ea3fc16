package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMiB is the process's high-water resident set.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// allocMeter measures heap allocation over stretches of a loop, so work
// the benchmark itself does between operations (fingerprints, checks)
// can be left out of the per-window figures.
type allocMeter struct {
	mallocs, bytes uint64
	m0             runtime.MemStats
}

func (a *allocMeter) resume() { runtime.ReadMemStats(&a.m0) }

func (a *allocMeter) pause() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	a.mallocs += m.Mallocs - a.m0.Mallocs
	a.bytes += m.TotalAlloc - a.m0.TotalAlloc
}

// nsPerCall times n calls of f in nine batches, after one untimed call,
// and returns the median batch's time per call: a burst on the host
// spoils the batches it hits, not the figure.
func nsPerCall(n int, f func()) float64 {
	const batches = 9
	per := n/batches + 1
	f()
	ns := make([]float64, batches)
	for k := range ns {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			f()
		}
		ns[k] = float64(time.Since(t0).Nanoseconds()) / float64(per)
	}
	return median(ns)
}

// msEach times reps separate calls of f and returns each in milliseconds.
func msEach(reps int, f func()) []float64 {
	out := make([]float64, reps)
	for i := range out {
		t0 := time.Now()
		f()
		out[i] = ms(time.Since(t0))
	}
	return out
}
