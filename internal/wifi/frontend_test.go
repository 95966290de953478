package wifi

import (
	"math"
	"math/rand"
	"testing"

	"symbee/internal/dsp"
	"symbee/internal/zigbee"
)

func TestNewFrontEndRates(t *testing.T) {
	tests := []struct {
		rate    float64
		wantLag int
		wantErr bool
	}{
		{20e6, 16, false},
		{40e6, 32, false},
		{21e6, 0, true}, // 16.8 samples per lag
		{0, 0, true},
		{-1, 0, true},
	}
	for _, tt := range tests {
		f, err := NewFrontEnd(tt.rate)
		if tt.wantErr != (err != nil) {
			t.Errorf("rate %v: err = %v, wantErr %v", tt.rate, err, tt.wantErr)
			continue
		}
		if err == nil && f.Lag() != tt.wantLag {
			t.Errorf("rate %v: lag = %d, want %d", tt.rate, f.Lag(), tt.wantLag)
		}
	}
}

func TestPhaseStreamMatchesManualComputation(t *testing.T) {
	f, err := NewFrontEnd(20e6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	x := make([]complex128, 100)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	ph := f.PhaseStream(x)
	if len(ph) != 100-16 {
		t.Fatalf("len = %d", len(ph))
	}
	// The front-end runs the fast phase kernel: manual Atan2 values must
	// agree within its documented bound.
	for n := range ph {
		p := x[n] * complex(real(x[n+16]), -imag(x[n+16]))
		want := math.Atan2(imag(p), real(p))
		if math.Abs(ph[n]-want) > dsp.FastAtan2MaxErr {
			t.Fatalf("ph[%d] = %v, want %v within %v", n, ph[n], want, dsp.FastAtan2MaxErr)
		}
	}
}

func TestAutocorrelationHighOnSTS(t *testing.T) {
	f, _ := NewFrontEnd(20e6)
	sts := STS()
	// Pad with mild noise around the STS.
	rng := rand.New(rand.NewSource(21))
	x := make([]complex128, 1000)
	for i := range x {
		x[i] = complex(rng.NormFloat64()*0.01, rng.NormFloat64()*0.01)
	}
	for i, v := range sts {
		x[400+i] += v
	}
	m := f.Autocorrelation(x)
	if m[400] < 0.9 {
		t.Errorf("timing metric over STS = %v, want > 0.9", m[400])
	}
	if m[100] > 0.5 {
		t.Errorf("timing metric over noise = %v, want < 0.5", m[100])
	}
}

func TestDetectPacketsFindsWiFiNotZigBee(t *testing.T) {
	// SymBee's premise: the packet detector must fire on WiFi frames and
	// stay silent on ZigBee, even though both flow through it.
	f, _ := NewFrontEnd(20e6)
	rng := rand.New(rand.NewSource(33))
	tx := NewTransmitter(rng)
	frame, err := tx.Frame(4)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := zigbee.NewModulator(20e6)
	if err != nil {
		t.Fatal(err)
	}
	zb := mod.ModulateBytes([]byte{0x67, 0xEF, 0x67, 0xEF, 0x67, 0xEF}, zigbee.OrderMSBFirst)

	x := make([]complex128, 12000)
	for i := range x {
		x[i] = complex(rng.NormFloat64()*0.02, rng.NormFloat64()*0.02)
	}
	for i, v := range frame {
		x[2000+i] += v
	}
	for i, v := range zb {
		x[7000+i] += v
	}

	starts := f.DetectPackets(x, 0.7, 64)
	if len(starts) != 1 {
		t.Fatalf("detections = %v, want exactly one (the WiFi frame)", starts)
	}
	// The Schmidl-Cox plateau begins slightly before the STS itself once
	// the correlation window is dominated by STS energy.
	if starts[0] < 1850 || starts[0] > 2100 {
		t.Errorf("detection at %d, want near 2000", starts[0])
	}
}

func TestAutocorrelationShortInput(t *testing.T) {
	f, _ := NewFrontEnd(20e6)
	if m := f.Autocorrelation(make([]complex128, 10)); m != nil {
		t.Errorf("expected nil for short input, got %v", m)
	}
}
