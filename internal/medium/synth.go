package medium

import (
	"math"
	"runtime"
	"sync"

	"symbee/internal/zigbee"
)

// rotReseed is dsp.RotateFrequency's reseed period in waveform samples:
// at every multiple the rotator's phasor is recomputed from the
// absolute phase, which bounds its drift.
const rotReseed = 4096

// windowSamples is the render window: 16 chunks. A window of 2^16
// samples splits into parts several reseed periods long, so a part's
// rotator pre-step (rotatorAt) stays a few percent of its work.
const windowSamples = 1 << 16

// minPartSamples is the shortest part a window is split into: one
// reseed period, so a part never pre-steps a rotator through more
// samples than it renders.
const minPartSamples = rotReseed

// renderer renders the capture one window at a time on every core. A
// window's sample range is cut into contiguous parts; each part zeroes
// its range and mixes every active transmission's stretch into it in
// admission order, chunk by chunk, so every sample gets the same float
// additions in the same order whatever the part count. Part 0 renders
// on Run's goroutine, the others on workers that live for one Run.
type renderer struct {
	mod    *zigbee.Modulator
	window []complex128
	parts  []part

	// active and cur describe the window being rendered: written
	// before the fork, read-only until the join.
	active []*activeTx
	cur    int

	work chan *part
	done chan struct{}
	wg   sync.WaitGroup
}

// part is one contiguous stretch [lo, hi) of the window, with the
// state rendering it needs of its own.
type part struct {
	lo, hi int
	// src is the part's source scratch (mixTx): a stretch of n ≤
	// chunkSamples output samples reads at most (n−1)·ratio + 3 source
	// samples, and no sender's clock ratio exceeds 1 + SFOppm·1e-6. The
	// +4 leaves one sample for the rounding of the float positions.
	src []complex128
	// rot holds each active transmission's rotator phasor for the next
	// sample this part renders, in the order of renderer.active.
	rot []complex128
}

// newRenderer allocates the window and one part per core the window
// has room for, and starts a worker for every part past the first.
// The caller must stop it.
func newRenderer(mod *zigbee.Modulator, sfoPPM float64) *renderer {
	r := &renderer{
		mod:    mod,
		window: make([]complex128, windowSamples),
		parts:  make([]part, min(runtime.GOMAXPROCS(0), windowSamples/minPartSamples)),
		work:   make(chan *part),
		done:   make(chan struct{}),
	}
	for i := range r.parts {
		r.parts[i].src = make([]complex128, int(float64(chunkSamples)*(1+sfoPPM*1e-6))+4)
	}
	for range len(r.parts) - 1 {
		r.wg.Add(1)
		go r.worker()
	}
	return r
}

// worker renders the parts it is handed until stop.
func (r *renderer) worker() {
	defer r.wg.Done()
	for p := range r.work {
		r.renderPart(p)
		r.done <- struct{}{}
	}
}

// stop ends the workers and returns once every one has exited.
func (r *renderer) stop() {
	close(r.work)
	r.wg.Wait()
}

// render synthesizes the capture for [cur, cur+n) without receiver
// noise and returns it; the slice is the renderer's window, reused by
// the next call. A window no transmission overlaps is zeroed on the
// calling goroutine. Otherwise it is cut into one part for the caller
// and at most one per worker, each at least minPartSamples long, and
// the call returns once every part is rendered. Every transmission that
// renders past the window then carries the rotator of the last part,
// which rendered the end of its stretch.
//
//symbee:hotpath
func (r *renderer) render(n int, active []*activeTx, cur int) []complex128 {
	win := r.window[:n]
	if len(active) == 0 {
		clear(win)
		return win
	}
	np := max(1, min(len(r.parts), n/minPartSamples))
	r.active, r.cur = active, cur
	for i := range np {
		r.parts[i].lo, r.parts[i].hi = i*n/np, (i+1)*n/np
	}
	for i := 1; i < np; i++ {
		r.work <- &r.parts[i]
	}
	r.renderPart(&r.parts[0])
	for i := 1; i < np; i++ {
		<-r.done
	}
	last := &r.parts[np-1]
	for i, a := range active {
		if a.rec.start+a.live > cur+n {
			a.rot = last.rot[i]
		}
	}
	return win
}

// renderPart renders p's stretch of the window chunk by chunk: zero the
// chunk, then mix every active transmission's overlap in admission
// (schedule) order. That is exactly
// the per-sample addition order of the dense reference (which
// superposes whole waveforms in sorted order and AWGNs the finished
// capture; Run adds the noise last), so the lazily-rendered capture is
// bit-identical to the materialized one. The window's first part
// starts each rotator from the phasor carried from the previous
// window; any other part pre-steps it (rotatorAt).
func (r *renderer) renderPart(p *part) {
	start := r.cur + p.lo
	p.rot = p.rot[:0]
	for _, a := range r.active {
		rot := a.rot
		if p.lo > 0 {
			rot = a.rotatorAt(start - a.rec.start)
		}
		p.rot = append(p.rot, rot)
	}
	for lo := p.lo; lo < p.hi; lo += chunkSamples {
		dst := r.window[lo:min(lo+chunkSamples, p.hi)]
		clear(dst)
		for i, a := range r.active {
			p.rot[i] = mixTx(dst, p.src, a, r.cur+lo, r.mod, p.rot[i])
		}
	}
}

// rotatorAt returns the phasor mixTx rotates waveform sample w by when
// it renders the frame from its first sample: the reseed at the
// enclosing multiple of rotReseed, stepped to w by one rot *= inc per
// sample, the same multiplies in the same order, so the result is
// bit-identical to the carried phasor. It costs at most rotReseed−1
// multiplies. A w outside (0, live) needs no phasor: mixTx reseeds at
// w = 0 and renders nothing from live on.
func (a *activeTx) rotatorAt(w int) complex128 {
	if w <= 0 || w >= a.live {
		return 0
	}
	b := w - w%rotReseed
	phi := a.step * float64(b)
	rot := complex(math.Cos(phi), math.Sin(phi))
	for ; b < w; b++ {
		rot *= a.inc
	}
	return rot
}

// mixTx adds the stretch of a's impaired waveform that overlaps the
// window starting at cur into dst, in one pass, starting from the
// rotator phasor rot, and returns the phasor for the sample after the
// stretch: it modulates only the source samples the stretch reads into
// src, then per output sample interpolates the SFO resample, rotates
// by the CFO and scales by the gain. Each step is the dense reference's
// own expression (channel.ApplySFO, dsp.RotateFrequency, the complex
// gain), so every product and sum is the same float operation, except
// that the interpolation weights and the gain are applied as real
// scalars: 4 and 2 multiplies where the reference's complex(w, 0)
// products take 8 and 4. The dropped products are ±0 terms, so the
// result can differ only in the sign of a zero, and the chunk sum,
// which starts at +0, comes out bit-identical (DESIGN.md §12.2). The
// float64 conversions round each real product on its own, as the
// reference's complex products are rounded, so no compiler may fuse it
// into the following add. The resampler's zero tail adds nothing and
// is skipped. mixTx only reads a, so parts may mix it concurrently.
func mixTx(dst, src []complex128, a *activeTx, cur int, mod *zigbee.Modulator, rot complex128) complex128 {
	lo := a.rec.start - cur
	off := 0 // first waveform sample in the window
	if lo < 0 {
		off, lo = -lo, 0
	}
	n := min(a.live-off, len(dst)-lo)
	if n <= 0 {
		return rot
	}
	out := dst[lo : lo+n]
	// Waveform samples [off, off+n) read source samples [first,
	// first+len(src)): themselves without SFO, and with it every
	// interpolation pair, whose right neighbour live keeps inside the
	// frame.
	first, span := off, n
	if a.sfo {
		first = int(float64(off) * a.ratio)
		span = int(float64(off+n-1)*a.ratio) + 2 - first
	}
	src = src[:span]
	mod.ModulateChipsRange(src, a.chips, first)
	g, ratio, inc := a.gain, a.ratio, a.inc
	for k := 0; k < n; {
		w := off + k
		if w%rotReseed == 0 {
			phi := a.step * float64(w)
			rot = complex(math.Cos(phi), math.Sin(phi))
		}
		end := min(n, k+rotReseed-w%rotReseed)
		if a.sfo {
			for ; k < end; k++ {
				pos := float64(off+k) * ratio
				i := int(pos) // pos ≥ 0, so truncation is math.Floor
				frac := pos - float64(i)
				x0, x1 := src[i-first], src[i+1-first]
				v := complex(float64(real(x0)*(1-frac))+float64(real(x1)*frac),
					float64(imag(x0)*(1-frac))+float64(imag(x1)*frac))
				v *= rot
				rot *= inc
				out[k] += complex(float64(real(v)*g), float64(imag(v)*g))
			}
		} else {
			for ; k < end; k++ {
				v := src[k] * rot
				rot *= inc
				out[k] += complex(float64(real(v)*g), float64(imag(v)*g))
			}
		}
	}
	return rot
}

// resampledLive returns how many leading output samples of an
// airtime-long frame channel.ApplySFO interpolates at clock ratio
// ratio: the first n with int(float64(n)·ratio)+1 ≥ airtime starts its
// zero tail. The source position is monotone in n, so the estimate
// airtime/ratio is walked to the exact boundary.
func resampledLive(ratio float64, airtime int) int {
	n := min(int(float64(airtime)/ratio), airtime)
	for n > 0 && int(float64(n-1)*ratio)+1 >= airtime {
		n--
	}
	for n < airtime && int(float64(n)*ratio)+1 < airtime {
		n++
	}
	return n
}
