package dsp

import "fmt"

// PhaseDiffStreamer computes the idle-listening phase stream
// incrementally: IQ samples are pushed in arbitrarily sized chunks and
// each phase value is emitted as soon as its lag-delayed partner sample
// arrives. The output is bit-identical to PhaseDiffStream over the
// concatenated input, regardless of where the chunk boundaries fall —
// the streamer carries the lag most recent samples in a ring across
// pushes.
type PhaseDiffStreamer struct {
	lag  int
	ring []complex128 // the lag most recent samples, oldest at pos
	pos  int
	fill int
}

// NewPhaseDiffStreamer returns a streamer for the given autocorrelation
// lag (16 at 20 Msps, 32 at 40 Msps).
func NewPhaseDiffStreamer(lag int) (*PhaseDiffStreamer, error) {
	if lag <= 0 {
		return nil, fmt.Errorf("dsp: NewPhaseDiffStreamer lag %d must be positive", lag)
	}
	return &PhaseDiffStreamer{lag: lag, ring: make([]complex128, lag)}, nil
}

// Push consumes one IQ sample. Once at least lag+1 samples have been
// pushed it returns ∠(x[n]·x*[n+lag]) for n = pushed−lag−1 — the same
// value PhaseDiffStream produces at that index — with ok=true; during
// the initial lag-sample warm-up ok is false.
//
//symbee:hotpath
func (s *PhaseDiffStreamer) Push(x complex128) (phi float64, ok bool) {
	if s.fill < s.lag {
		s.ring[s.pos] = x
		s.pos++
		if s.pos == s.lag {
			s.pos = 0
		}
		s.fill++
		return 0, false
	}
	old := s.ring[s.pos] // x[n], exactly lag samples behind x
	s.ring[s.pos] = x
	s.pos++
	if s.pos == s.lag {
		s.pos = 0
	}
	// Same expression and kernel as PhaseDiffStream so the two paths
	// agree to the last bit: p = x[n] · conj(x[n+lag]).
	p := old * complex(real(x), -imag(x))
	return FastAtan2(imag(p), real(p)), true
}

// Process pushes every sample of in and appends the phases that become
// available to out, returning the extended slice. It is bit-identical
// to calling Push per sample; only the first lag samples of a chunk go
// through the ring — every later sample finds its lag-delayed partner
// inside the chunk itself, so the body runs through the block kernel
// PhaseDiffStream uses, with no per-sample ring bookkeeping (the
// batched front-end half of the idle-hunt kernel).
//
//symbee:hotpath
func (s *PhaseDiffStreamer) Process(in []complex128, out []float64) []float64 {
	// Ring boundary: samples whose partner predates the chunk (or that
	// are still warming the ring) go through the scalar push.
	head := min(s.lag, len(in))
	for _, x := range in[:head] {
		if phi, ok := s.Push(x); ok {
			out = append(out, phi)
		}
	}
	if head == len(in) {
		return out
	}
	// Body: in[n] pairs with in[n+lag].
	out = appendPhaseDiff(out, in, s.lag)
	// The ring ends up holding the last lag samples, oldest first.
	copy(s.ring, in[len(in)-s.lag:])
	s.pos = 0
	s.fill = s.lag
	return out
}

// Reset returns the streamer to its initial empty state.
func (s *PhaseDiffStreamer) Reset() {
	s.pos, s.fill = 0, 0
}
