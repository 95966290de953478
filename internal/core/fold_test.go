package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fold implements the folding technique (Staelin's fast folding, paper
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
// fold reports an error for non-positive dimensions or when x is
// shorter than reps*period.
func fold(x []float64, period, reps int) ([]float64, error) {
	if period <= 0 || reps <= 0 {
		return nil, fmt.Errorf("fold: period %d and reps %d must be positive", period, reps)
	}
	if len(x) < period*reps {
		return nil, fmt.Errorf("fold: input length %d shorter than period*reps = %d", len(x), period*reps)
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

// slidingFolder incrementally maintains fold sums over a stream so that a
// receiver can evaluate fold(x[t:], period, reps) for every t in O(1)
// amortized per sample instead of O(reps·period). It keeps a ring of the
// last reps*period samples; pushing a new sample returns the completed
// fold-sum value for the column that just left the window, i.e. after
// pushing sample x[t] the return value is
//
//	Σ_{i=0}^{reps-1} x[t-reps*period+1 + i*period]
//
// (valid once at least reps*period samples have been pushed). The terms
// are added oldest first to +0, the order of the batched preamble kernel
// (huntbatch.go), so the per-sample reference scan (scanref_test.go)
// agrees with it bit for bit.
type slidingFolder struct {
	period int
	reps   int
	ring   []float64
	pos    int
	count  int
}

// newSlidingFolder returns a slidingFolder for the given period and
// repetition count.
func newSlidingFolder(period, reps int) (*slidingFolder, error) {
	if period <= 0 || reps <= 0 {
		return nil, fmt.Errorf("newSlidingFolder: period %d and reps %d must be positive", period, reps)
	}
	return &slidingFolder{
		period: period,
		reps:   reps,
		ring:   make([]float64, period*reps),
	}, nil
}

// push adds sample v to the stream. Once the folder has seen at least
// period*reps samples it returns the fold sum anchored at the oldest
// sample in its window and ok=true; before that ok is false.
func (f *slidingFolder) push(v float64) (sum float64, ok bool) {
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

// reset returns the folder to its initial empty state. O(1): stale ring
// values are never read, because push only sums once count reaches the
// ring length again, by which point every slot has been rewritten.
func (f *slidingFolder) reset() {
	f.pos = 0
	f.count = 0
}

func TestFoldBasic(t *testing.T) {
	// Period 3, reps 2: columns sum pairwise.
	x := []float64{1, 2, 3, 10, 20, 30}
	got, err := fold(x, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{11, 22, 33}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fold[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFoldShortInputErrors(t *testing.T) {
	if _, err := fold([]float64{1, 2}, 3, 2); err == nil {
		t.Error("expected error for short input")
	}
}

func TestFoldAmplifiesPeriodicSignal(t *testing.T) {
	// A periodic pulse buried in noise should stand out in the fold sum:
	// the core claim behind SymBee preamble capture (Fig. 11).
	const (
		period = 640
		reps   = 4
	)
	rng := rand.New(rand.NewSource(42))
	x := make([]float64, period*reps)
	for i := range x {
		x[i] = rng.NormFloat64() * 1.5 // heavy noise
	}
	// Embed a +1.0 plateau of length 84 at offset 100 in every period.
	for r := 0; r < reps; r++ {
		for k := 0; k < 84; k++ {
			x[r*period+100+k] += 2.0
		}
	}
	sum, err := fold(x, period, reps)
	if err != nil {
		t.Fatal(err)
	}
	mean := func(x []float64) float64 {
		var s float64
		for _, v := range x {
			s += v
		}
		return s / float64(len(x))
	}
	inside := mean(sum[100:184])
	outside := mean(append(append([]float64{}, sum[:100]...), sum[184:]...))
	if inside < outside+4 {
		t.Errorf("fold sum did not amplify plateau: inside %.2f, outside %.2f", inside, outside)
	}
}

func TestSlidingFolderMatchesFold(t *testing.T) {
	const (
		period = 7
		reps   = 3
		n      = 100
	)
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	f, err := newSlidingFolder(period, reps)
	if err != nil {
		t.Fatal(err)
	}
	win := period * reps
	for i, v := range x {
		sum, ok := f.push(v)
		if i < win-1 {
			if ok {
				t.Fatalf("ok=true before window filled at i=%d", i)
			}
			continue
		}
		if !ok {
			t.Fatalf("ok=false after window filled at i=%d", i)
		}
		start := i - win + 1
		want := 0.0
		for r := 0; r < reps; r++ {
			want += x[start+r*period]
		}
		if math.Abs(sum-want) > 1e-9 {
			t.Fatalf("sliding fold at %d = %v, want %v", i, sum, want)
		}
	}
}

func TestSlidingFolderReset(t *testing.T) {
	f, err := newSlidingFolder(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		f.push(1)
	}
	f.reset()
	if _, ok := f.push(1); ok {
		t.Error("expected not-full after reset")
	}
}
