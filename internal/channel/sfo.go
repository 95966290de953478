package channel

// ApplySFO resamples x by a sampling-frequency offset of ppm parts per
// million (receiver clock faster for positive ppm), using linear
// interpolation. Real ZigBee crystals are specified at ±40 ppm; over a
// 3.5 ms SymBee packet that slides the sample grid by a couple of
// samples, which the decoder's stable-run margins must absorb. The
// output has the same length as the input (tail samples beyond the
// source are zero). Zero ppm returns x itself.
//
// ppm must be finite and greater than −1e6: at −1e6 or below the
// receiver clock stops or runs backwards and the source position goes
// negative, which no resampling describes.
func ApplySFO(x []complex128, ppm float64) []complex128 {
	if ppm == 0 {
		return x
	}
	return ApplySFOInto(nil, x, ppm)
}

// ApplySFOInto is ApplySFO resampling into dst's storage when its
// capacity suffices (a new slice otherwise), so a caller that resamples
// frame after frame can recycle one buffer. Every returned sample is
// overwritten; zero ppm copies x. dst must not overlap x.
func ApplySFOInto(dst, x []complex128, ppm float64) []complex128 {
	if cap(dst) < len(x) {
		dst = make([]complex128, len(x))
	}
	dst = dst[:len(x)]
	if ppm == 0 {
		copy(dst, x)
		return dst
	}
	ratio := 1 + ppm*1e-6
	for n := range dst {
		pos := float64(n) * ratio
		// pos ≥ 0 on ApplySFO's domain (ratio > 0), where truncation
		// toward zero is math.Floor.
		i := int(pos)
		if i+1 >= len(x) {
			clear(dst[n:])
			break
		}
		frac := pos - float64(i)
		dst[n] = x[i]*complex(1-frac, 0) + x[i+1]*complex(frac, 0)
	}
	return dst
}
