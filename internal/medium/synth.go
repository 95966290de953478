package medium

import (
	"math"
	"math/rand"

	"symbee/internal/channel"
	"symbee/internal/zigbee"
)

// rotReseed is dsp.RotateFrequency's reseed period in waveform samples:
// at every multiple the rotator's phasor is recomputed from the
// absolute phase, which bounds its drift.
const rotReseed = 4096

// renderChunk synthesizes the shared-medium capture for the window
// [cur, cur+len(dst)): zero the window, mix every active
// transmission's overlap in admission (schedule) order, then add unit
// receiver noise last. That is exactly the per-sample addition order
// of the dense reference (which superposes whole waveforms in sorted
// order and AWGNs the finished capture), so the lazily-rendered
// capture is bit-identical to the materialized one. Idle windows cost
// the noise draws and nothing else. src is the scratch the source
// samples of one transmission's stretch are modulated into; Run sizes
// it for the longest stretch any sender's clock can read.
//
//symbee:hotpath
func renderChunk(dst, src []complex128, active []*activeTx, cur int, mod *zigbee.Modulator, noise *rand.Rand) {
	clear(dst)
	for _, a := range active {
		mixTx(dst, src, a, cur, mod)
	}
	channel.AddAWGN(dst, 1, noise)
}

// mixTx adds the stretch of a's impaired waveform that overlaps the
// window starting at cur into dst, in one pass: it modulates only the
// source samples the stretch reads into src, then per output sample
// interpolates the SFO resample, rotates by the CFO and scales by the
// gain. Each step is the dense reference's own expression
// (channel.ApplySFO, dsp.RotateFrequency, the complex gain), so
// every product and sum is the same float operation, except that the
// interpolation weights and the gain are applied as real scalars: 4
// and 2 multiplies where the reference's complex(w, 0) products take 8
// and 4. The dropped products are ±0 terms, so the result can differ
// only in the sign of a zero, and the chunk sum, which starts at +0,
// comes out bit-identical (DESIGN.md §12.2). The float64 conversions
// round each real product on its own, as the reference's complex
// products are rounded, so no compiler may fuse it into the following
// add. The resampler's zero tail adds nothing and is skipped.
func mixTx(dst, src []complex128, a *activeTx, cur int, mod *zigbee.Modulator) {
	lo := a.rec.start - cur
	off := 0 // first waveform sample in the window
	if lo < 0 {
		off, lo = -lo, 0
	}
	n := min(a.live-off, len(dst)-lo)
	if n <= 0 {
		return
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
	rot := a.rot
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
	a.rot = rot
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
