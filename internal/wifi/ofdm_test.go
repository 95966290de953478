package wifi

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"symbee/internal/dsp"
	"symbee/internal/testutil"
)

func TestSTSPeriodicity(t *testing.T) {
	sts := STS()
	if len(sts) != STSLen {
		t.Fatalf("len = %d, want %d", len(sts), STSLen)
	}
	for i := 0; i+16 < len(sts); i++ {
		if cmplx.Abs(sts[i]-sts[i+16]) > 1e-9 {
			t.Fatalf("STS not 16-periodic at %d", i)
		}
	}
}

func TestLTSStructure(t *testing.T) {
	lts := LTS()
	if len(lts) != LTSLen {
		t.Fatalf("len = %d, want %d", len(lts), LTSLen)
	}
	// Guard interval is the tail of the symbol; two symbol copies.
	for i := 0; i < 64; i++ {
		if cmplx.Abs(lts[32+i]-lts[96+i]) > 1e-9 {
			t.Fatalf("LTS symbol copies differ at %d", i)
		}
	}
	// The 32-sample guard is the tail of the symbol: lts[i] = sym[32+i]
	// = lts[64+i].
	for i := 0; i < 32; i++ {
		if cmplx.Abs(lts[i]-lts[64+i]) > 1e-9 {
			t.Fatalf("LTS cyclic prefix mismatch at %d", i)
		}
	}
}

func TestFrameLengthAndPower(t *testing.T) {
	tx := NewTransmitter(rand.New(rand.NewSource(1)))
	frame, err := tx.Frame(10)
	if err != nil {
		t.Fatal(err)
	}
	want := PreambleLen + 10*OFDMSymbolLen
	if len(frame) != want {
		t.Fatalf("len = %d, want %d", len(frame), want)
	}
	if p := dsp.Power(frame); math.Abs(p-1) > 1e-9 {
		t.Errorf("power = %v, want 1", p)
	}
}

func TestFrameForDuration(t *testing.T) {
	tx := NewTransmitter(rand.New(rand.NewSource(2)))
	// The Fig. 20 interferer: a 270 µs WiFi burst.
	frame, err := tx.FrameForDuration(270e-6)
	if err != nil {
		t.Fatal(err)
	}
	dur := float64(len(frame)) / 20e6
	if dur < 270e-6 || dur > 290e-6 {
		t.Errorf("duration = %v, want ≈270 µs", dur)
	}
	if _, err := tx.FrameForDuration(0); err == nil {
		t.Error("expected error for zero duration")
	}
}

func TestFrameNegativeSymbols(t *testing.T) {
	tx := NewTransmitter(rand.New(rand.NewSource(3)))
	if _, err := tx.Frame(-1); err == nil {
		t.Error("expected error")
	}
}

func TestDataSubcarrierCount(t *testing.T) {
	if len(dataSubcarriers) != 48 {
		t.Errorf("data subcarriers = %d, want 48", len(dataSubcarriers))
	}
}

func TestFrameOccupiesWideBand(t *testing.T) {
	// An OFDM data frame should spread energy over ±8 MHz; a ZigBee
	// signal concentrates within ±1 MHz. Check the OFDM side.
	tx := NewTransmitter(rand.New(rand.NewSource(4)))
	frame, _ := tx.Frame(8)
	spec := testutil.SpectrumPower(frame[PreambleLen:])
	n := len(spec)
	// Fraction of power beyond ±2 MHz (bins n*2/20 away from DC).
	edge := n / 10
	var outer, total float64
	for k, p := range spec {
		total += p
		if k > edge && k < n-edge {
			outer += p
		}
	}
	if outer/total < 0.5 {
		t.Errorf("outer-band power fraction = %v, want > 0.5", outer/total)
	}
}
