package dsp

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestEnergyAndPower(t *testing.T) {
	x := []complex128{3 + 4i, 0, 1}
	if e := Energy(x); math.Abs(e-26) > 1e-12 {
		t.Errorf("Energy = %v, want 26", e)
	}
	if p := Power(x); math.Abs(p-26.0/3) > 1e-12 {
		t.Errorf("Power = %v, want 26/3", p)
	}
	if p := Power(nil); p != 0 {
		t.Errorf("Power(nil) = %v, want 0", p)
	}
}

func TestScale(t *testing.T) {
	x := []complex128{1 + 1i, 2}
	Scale(x, 2)
	if x[0] != 2+2i || x[1] != 4 {
		t.Errorf("Scale result = %v", x)
	}
}

func TestNormalizePower(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	NormalizePower(x, 2.5)
	if p := Power(x); math.Abs(p-2.5) > 1e-12 {
		t.Errorf("normalized power = %v, want 2.5", p)
	}
	// Zero signal unchanged.
	z := []complex128{0, 0}
	NormalizePower(z, 1)
	if z[0] != 0 || z[1] != 0 {
		t.Error("zero signal should be unchanged")
	}
}

func TestMixInto(t *testing.T) {
	dst := make([]complex128, 5)
	src := []complex128{1, 2, 3}
	if n := MixInto(dst, src, 3); n != 2 {
		t.Errorf("MixInto clipped count = %d, want 2", n)
	}
	if dst[3] != 1 || dst[4] != 2 {
		t.Errorf("dst = %v", dst)
	}
	dst = make([]complex128, 5)
	if n := MixInto(dst, src, -1); n != 2 {
		t.Errorf("MixInto negative offset count = %d, want 2", n)
	}
	if dst[0] != 2 || dst[1] != 3 {
		t.Errorf("dst = %v", dst)
	}
	if n := MixInto(dst, src, 10); n != 0 {
		t.Errorf("MixInto past end count = %d, want 0", n)
	}
}

func TestRotateFrequency(t *testing.T) {
	// Rotating a DC signal by f produces a tone at f.
	const (
		n    = 2048
		rate = 20e6
		freq = 3e6
	)
	x := make([]complex128, n)
	for i := range x {
		x[i] = 1
	}
	RotateFrequency(x, freq, rate, 0)
	for i := 0; i < n; i++ {
		want := cmplx.Exp(complex(0, 2*math.Pi*freq*float64(i)/rate))
		if cmplx.Abs(x[i]-want) > 1e-6 {
			t.Fatalf("sample %d = %v, want %v", i, x[i], want)
		}
	}
}

func TestRotateFrequencyChunked(t *testing.T) {
	// Rotating in two chunks with startSample continuation must equal a
	// single rotation.
	const n = 1000
	a := make([]complex128, n)
	b := make([]complex128, n)
	for i := range a {
		a[i] = complex(float64(i%7), float64(i%3))
		b[i] = a[i]
	}
	RotateFrequency(a, 2e6, 20e6, 0)
	RotateFrequency(b[:400], 2e6, 20e6, 0)
	RotateFrequency(b[400:], 2e6, 20e6, 400)
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > 1e-6 {
			t.Fatalf("chunked rotation mismatch at %d", i)
		}
	}
}

func TestDelaySum(t *testing.T) {
	x := []complex128{1, 0, 0, 0}
	y, err := DelaySum(x, []int{0, 2}, []complex128{1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want := []complex128{1, 0, 0.5, 0}
	for i := range want {
		if y[i] != want[i] {
			t.Errorf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}
