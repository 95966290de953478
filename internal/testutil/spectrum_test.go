package testutil

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestSpectrumPowerTone(t *testing.T) {
	// 0.5 MHz tone at 20 Msps over 400 samples pads to 512; peak bin
	// should be near 0.5/20*512 = 12.8 → bin 13.
	const n = 400
	x := make([]complex128, n)
	for i := range x {
		ang := 2 * math.Pi * 0.5e6 * float64(i) / 20e6
		x[i] = cmplx.Exp(complex(0, ang))
	}
	spec := SpectrumPower(x)
	best := 0
	for k, p := range spec {
		if p > spec[best] {
			best = k
		}
	}
	if best < 12 || best > 14 {
		t.Errorf("peak bin = %d, want ~13", best)
	}
}
