package dsp

import "fmt"

// Fold implements the folding technique (Staelin's fast folding, paper
// §V) used to detect a periodic pattern buried in noise: the input is
// sliced into reps consecutive subvectors of length period, which are
// stacked and summed column-wise.
//
//	FoldSum[n] = Σ_{i=0}^{reps-1} x[n + i·period],  0 ≤ n < period
//
// For SymBee preamble capture the input is the phase stream, period = 640
// (one SymBee bit at 20 Msps) and reps = 4 (four preamble bits), so the
// stable-phase region adds coherently while noise averages out.
//
// Fold reports an error for non-positive dimensions or when x is
// shorter than reps*period.
func Fold(x []float64, period, reps int) ([]float64, error) {
	if period <= 0 || reps <= 0 {
		return nil, fmt.Errorf("dsp: Fold period %d and reps %d must be positive", period, reps)
	}
	if len(x) < period*reps {
		return nil, fmt.Errorf("dsp: Fold input length %d shorter than period*reps = %d", len(x), period*reps)
	}
	out := make([]float64, period)
	for i := 0; i < reps; i++ {
		seg := x[i*period : (i+1)*period]
		for n, v := range seg {
			out[n] += v
		}
	}
	return out, nil
}

// SlidingFolder incrementally maintains fold sums over a stream so that a
// receiver can evaluate Fold(x[t:], period, reps) for every t in O(1)
// amortized per sample instead of O(reps·period). It keeps a ring of the
// last reps*period samples; pushing a new sample returns the completed
// fold-sum value for the column that just left the window, i.e. after
// pushing sample x[t] the return value is
//
//	Σ_{i=0}^{reps-1} x[t-reps*period+1 + i*period]
//
// (valid once at least reps*period samples have been pushed). The terms
// are added oldest first to +0, the order of the batched preamble kernel
// in internal/core, so the per-sample reference scan its tests pin it to
// agrees with it bit for bit.
type SlidingFolder struct {
	period int
	reps   int
	ring   []float64
	pos    int
	count  int
}

// NewSlidingFolder returns a SlidingFolder for the given period and
// repetition count.
func NewSlidingFolder(period, reps int) (*SlidingFolder, error) {
	if period <= 0 || reps <= 0 {
		return nil, fmt.Errorf("dsp: NewSlidingFolder period %d and reps %d must be positive", period, reps)
	}
	return &SlidingFolder{
		period: period,
		reps:   reps,
		ring:   make([]float64, period*reps),
	}, nil
}

// Push adds sample v to the stream. Once the folder has seen at least
// period*reps samples it returns the fold sum anchored at the oldest
// sample in its window and ok=true; before that ok is false.
func (f *SlidingFolder) Push(v float64) (sum float64, ok bool) {
	f.ring[f.pos] = v
	f.pos++
	if f.pos == len(f.ring) {
		f.pos = 0
	}
	if f.count < len(f.ring) {
		f.count++
		if f.count < len(f.ring) {
			return 0, false
		}
	}
	// The oldest sample sits at f.pos (just about to be overwritten on
	// the next push). Sum it with its reps-1 period-spaced successors.
	idx := f.pos
	for i := 0; i < f.reps; i++ {
		sum += f.ring[idx]
		idx += f.period
		if idx >= len(f.ring) {
			idx -= len(f.ring)
		}
	}
	return sum, true
}

// Reset returns the folder to its initial empty state. O(1): stale ring
// values are never read, because Push only sums once count reaches the
// ring length again, by which point every slot has been rewritten.
func (f *SlidingFolder) Reset() {
	f.pos = 0
	f.count = 0
}
