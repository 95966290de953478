package main

import (
	"math"
	"sync"
	"time"
)

// The host this benchmark was built on shares its cores with other
// tenants. A fixed compute loop there runs at full speed, then at half
// speed for episodes of 1-3 s that covered up to ~40% of the time. Its
// full speed also drifts by about ±5-8% over minutes, and the VM exposes
// no hardware counters. Raw realtime medians over ten seeds therefore
// spread up to 27%, beyond any useful regression bound.
//
// So the timings a run reports are scaled to a reference host speed
// (crowd's rates excepted; see meter.scaled). A fixed computation, the
// host reference, is timed right before and right after each measured
// window. The window's wall times are multiplied by refNominal over the
// mean of the two samples: what the reference machine would have
// measured at full speed. The program under test never runs inside a
// reference sample, so a change to the program moves the scaled numbers
// exactly as it moves the raw ones; only the host's share drops out.
// The run record keeps the raw medians and the host speed beside the
// scaled metrics.

// refNominal is the reference computation's duration on the reference
// machine (2 vCPUs, Intel Xeon at 2.1 GHz, go1.24) at full speed: the
// fast mode of 20,000 samples, whose slow mode sat near 190 us. It only
// sets the scale.
const refNominal = 0.000104

// hostRef is the reference computation: the lag-16 complex products and
// a polynomial arctangent of the receive front end, written here so no
// change to the program can move it. Its 16 KiB buffer stays in the L1
// cache, so what the workload left in the caches, and its garbage
// collector streaming memory on the other core, do not slow it: a
// 512 KiB buffer read 0.5-0.8 of its undisturbed speed between windows.
//
// It runs on as many cores at once as the workload keeps busy, one
// buffer each, and reports the slowest: idle_air's single producer
// feeds its two workers in turn, so the slower core sets its pace.
type hostRef struct {
	bufs [][]complex128
	sink []float64
	took []float64
}

// refPasses is how many times one sample runs over the buffer (~0.1 ms
// at full speed).
const refPasses = 16

func newHostRef(cores int) *hostRef {
	h := &hostRef{bufs: make([][]complex128, cores), sink: make([]float64, cores), took: make([]float64, cores)}
	for c := range h.bufs {
		buf := make([]complex128, 1<<10)
		for i := range buf {
			buf[i] = complex(math.Sin(float64(i)*0.37), math.Cos(float64(i)*0.11))
		}
		h.bufs[c] = buf
	}
	return h
}

// sample times one pass of the reference computation on every core at
// once and returns the slowest, in seconds.
func (h *hostRef) sample() float64 {
	var wg sync.WaitGroup
	for c := 1; c < len(h.bufs); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h.took[c] = h.run(c)
		}(c)
	}
	h.took[0] = h.run(0)
	wg.Wait()
	slowest := 0.0
	for _, t := range h.took {
		slowest = max(slowest, t)
	}
	return slowest
}

// run times the computation over buffer c.
func (h *hostRef) run(c int) float64 {
	buf := h.bufs[c]
	t0 := time.Now()
	acc := 0.0
	for pass := 0; pass < refPasses; pass++ {
		for i := 16; i < len(buf); i++ {
			x := buf[i]
			p := buf[i-16] * complex(real(x), -imag(x))
			acc += refAtan(imag(p), real(p))
		}
	}
	h.sink[c] += acc
	return time.Since(t0).Seconds()
}

// refAtan is a polynomial arctangent (max error ~1e-5 rad).
func refAtan(y, x float64) float64 {
	ax, ay := math.Abs(x), math.Abs(y)
	a := ay / (ax + 1e-300)
	inv := a > 1
	if inv {
		a = 1 / a
	}
	s := a * a
	r := ((-0.0464964749*s+0.15931422)*s-0.327622764)*s*a + a
	if inv {
		r = math.Pi/2 - r
	}
	if x < 0 {
		r = math.Pi - r
	}
	if y < 0 {
		r = -r
	}
	return r
}

// window is one measured interval between two reference samples.
type window struct {
	ref *hostRef
	r0  float64
	t0  time.Time
}

// open samples the reference and starts the window's clock.
func (h *hostRef) open() window {
	r0 := h.sample()
	return window{ref: h, r0: r0, t0: time.Now()}
}

// close stops the clock and samples the reference again. It returns the
// window's wall time and the factor that scales it to the reference
// host (below 1 when the host ran slow).
func (w window) close() (wall, scale float64) {
	wall = time.Since(w.t0).Seconds()
	r1 := w.ref.sample()
	return wall, refNominal / ((w.r0 + r1) / 2)
}
