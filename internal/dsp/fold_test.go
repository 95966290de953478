package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func TestFoldBasic(t *testing.T) {
	// Period 3, reps 2: columns sum pairwise.
	x := []float64{1, 2, 3, 10, 20, 30}
	got, err := Fold(x, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{11, 22, 33}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Fold[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFoldShortInputErrors(t *testing.T) {
	if _, err := Fold([]float64{1, 2}, 3, 2); err == nil {
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
	sum, err := Fold(x, period, reps)
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
	f, err := NewSlidingFolder(period, reps)
	if err != nil {
		t.Fatal(err)
	}
	win := period * reps
	for i, v := range x {
		sum, ok := f.Push(v)
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
	f, err := NewSlidingFolder(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		f.Push(1)
	}
	f.Reset()
	if _, ok := f.Push(1); ok {
		t.Error("expected not-full after Reset")
	}
}
