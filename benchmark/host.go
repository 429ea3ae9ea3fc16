package main

import (
	"math"
	"sync"
	"time"
)

// hostRef is the benchmark's yardstick for the speed of the host at this
// instant. The reference box is a 2-vCPU virtual machine whose speed
// drifts for seconds to minutes at a time (other tenants on the physical
// cores): within one hour the raw median window time of one binary moved
// by 45%, and ten back-to-back runs spread 13–20% between their
// quartiles, where the driver's contract allows a bound of at most 25%.
// The drift is multiplicative and hits any compute loop alike, so every
// timed operation is bracketed by runs of a fixed reference kernel and
// divided by the slowdown they show:
//
//	reported ms = measured ms × refNominalMs ÷ mean(reference before, after)
//
// i.e. the time the operation would have taken with the host at its
// undisturbed speed. Scaled, the same median moved by 5% and ten runs
// spread 4–6% (noise.json).
// The kernel uses only the standard library — one goroutine per worker,
// each sweeping a private 1 MiB array through math.Exp and math.Pow, the
// model's own instruction mix — so no change to the repository can move
// the yardstick.
type hostRef struct {
	bufs [][]float64
	last float64 // the latest sample, the "before" of the next operation
	all  []float64
}

// refNominalMs is the reference kernel's median on the undisturbed
// reference box (Xeon 2.1 GHz, 2 vCPU, go1.24). It only fixes the unit:
// on the reference box at rest, reported and measured times agree.
const refNominalMs = 14.2

func newHostRef() *hostRef {
	h := &hostRef{all: make([]float64, 0, 8192)}
	for w := 0; w < workers(); w++ {
		h.bufs = append(h.bufs, make([]float64, 1<<17))
	}
	h.sample() // page the buffers in
	h.sample()
	return h
}

// sample runs the reference kernel once and returns its wall time in ms.
func (h *hostRef) sample() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, buf := range h.bufs {
		wg.Add(1)
		go func(buf []float64) {
			defer wg.Done()
			mask := len(buf) - 1
			for sweep := 0; sweep < 2; sweep++ {
				for i := range buf {
					x := math.Exp(-0.5*buf[i]) + buf[(i+4099)&mask]*1e-3
					buf[i] = math.Pow(1+x, 0.286) - 1
				}
			}
		}(buf)
	}
	wg.Wait()
	h.last = ms(time.Since(t0))
	h.all = append(h.all, h.last)
	return h.last
}

// scale returns the factor that takes a duration measured between the
// previous sample and a fresh one to the undisturbed host.
func (h *hostRef) scale() float64 {
	before := h.last
	return refNominalMs / ((before + h.sample()) / 2)
}

// slowdown is the median slowdown of the host over the run so far.
func (h *hostRef) slowdown() float64 { return median(h.all) / refNominalMs }
