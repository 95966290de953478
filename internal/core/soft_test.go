package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"symbee/internal/channel"
	"symbee/internal/wifi"
)

func TestAngularDistance(t *testing.T) {
	tests := []struct{ a, b, want float64 }{
		{0, 0, 0},
		{math.Pi, -math.Pi, 0},
		{StablePhase, -StablePhase, 2 * math.Pi * 0.2}, // 2π−8π/5 = 2π/5
		{0.1, -0.1, 0.2},
	}
	for _, tt := range tests {
		if got := angularDistance(tt.a, tt.b); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("angularDistance(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestSoftDecodeNoiseless(t *testing.T) {
	l := mustLink(t, Params20(), 0)
	bits := []byte{0, 1, 1, 0, 1}
	sig, err := l.TransmitBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	phases := l.Phases(sig)
	anchor, err := l.Decoder().CapturePreamble(phases)
	if err != nil {
		t.Fatal(err)
	}
	soft, err := l.Decoder().DecodeSyncBitsSoft(phases, anchor, len(bits))
	if err != nil {
		t.Fatal(err)
	}
	for i, sb := range soft {
		if sb.Bit != bits[i] {
			t.Errorf("bit %d = %d, want %d", i, sb.Bit, bits[i])
		}
		// Noiseless LLR magnitude ≈ StableLen · 2π/5 per window... at
		// minimum well above half of the ideal.
		ideal := float64(Params20().StableLen) * 2 * math.Pi / 5
		if math.Abs(sb.LLR) < ideal/2 {
			t.Errorf("bit %d LLR = %v, want magnitude ≥ %v", i, sb.LLR, ideal/2)
		}
	}
}

func TestSoftBeatsOrMatchesHardAtLowSNR(t *testing.T) {
	p := Params20()
	l := mustLink(t, p, wifi.CanonicalCompensation)
	rng := rand.New(rand.NewSource(21))
	bits := randomBits(60, rng)
	sig, err := l.TransmitBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	hardErrs, softErrs, packets := 0, 0, 0
	for i := 0; i < 25; i++ {
		m, err := channel.NewMedium(channel.Config{
			SampleRate: p.SampleRate,
			SNRdB:      -1,
			FreqOffset: channel.DefaultFreqOffset,
			Pad:        400,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		phases := l.Phases(m.Transmit(sig))
		anchor, err := l.Decoder().CapturePreamble(phases)
		if err != nil {
			continue
		}
		hard, err := l.Decoder().DecodeSyncBits(phases, anchor, len(bits))
		if err != nil {
			continue // bogus capture anchor: window ran off the stream
		}
		soft, err := l.Decoder().DecodeSyncBitsSoft(phases, anchor, len(bits))
		if err != nil {
			continue
		}
		packets++
		for k := range bits {
			if hard[k] != bits[k] {
				hardErrs++
			}
			if soft[k].Bit != bits[k] {
				softErrs++
			}
		}
	}
	if packets == 0 {
		t.Skip("no captures at this SNR")
	}
	t.Logf("hard %d vs soft %d errors over %d packets", hardErrs, softErrs, packets)
	if softErrs > hardErrs+hardErrs/4+2 {
		t.Errorf("soft decoding (%d errors) should not be worse than hard (%d)", softErrs, hardErrs)
	}
}

func TestSoftDecodeTruncated(t *testing.T) {
	l := mustLink(t, Params20(), 0)
	sig, err := l.TransmitBits([]byte{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	phases := l.Phases(sig)
	anchor, err := l.Decoder().CapturePreamble(phases)
	if err != nil {
		t.Fatal(err)
	}
	_, err = l.Decoder().DecodeSyncBitsSoft(phases, anchor, 40)
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestSoftLLRConfidenceOrdersErrors(t *testing.T) {
	// Among decoded bits under noise, errors should concentrate at low
	// |LLR|: the confidence measure must be informative.
	p := Params20()
	l := mustLink(t, p, wifi.CanonicalCompensation)
	rng := rand.New(rand.NewSource(22))
	bits := randomBits(60, rng)
	sig, err := l.TransmitBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	var errLLR, okLLR []float64
	for i := 0; i < 20; i++ {
		m, err := channel.NewMedium(channel.Config{
			SampleRate: p.SampleRate,
			SNRdB:      -2,
			FreqOffset: channel.DefaultFreqOffset,
			Pad:        400,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		phases := l.Phases(m.Transmit(sig))
		anchor, err := l.Decoder().CapturePreamble(phases)
		if err != nil {
			continue
		}
		soft, err := l.Decoder().DecodeSyncBitsSoft(phases, anchor, len(bits))
		if err != nil {
			continue // bogus capture anchor
		}
		for k, sb := range soft {
			if sb.Bit == bits[k] {
				okLLR = append(okLLR, math.Abs(sb.LLR))
			} else {
				errLLR = append(errLLR, math.Abs(sb.LLR))
			}
		}
	}
	if len(errLLR) < 5 || len(okLLR) < 50 {
		t.Skip("not enough errors/successes to compare at this seed")
	}
	meanAbs := func(v []float64) float64 {
		var s float64
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	if meanAbs(errLLR) >= meanAbs(okLLR) {
		t.Errorf("wrong bits should have lower confidence: err %v vs ok %v",
			meanAbs(errLLR), meanAbs(okLLR))
	}
}
