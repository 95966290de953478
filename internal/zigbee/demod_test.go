package zigbee

import (
	"bytes"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func addNoise(x []complex128, sigma float64, rng *rand.Rand) []complex128 {
	out := make([]complex128, len(x))
	s := sigma / 1.4142135623730951
	for i, v := range x {
		out[i] = v + complex(rng.NormFloat64()*s, rng.NormFloat64()*s)
	}
	return out
}

func TestDemodulateSymbolsNoiseless(t *testing.T) {
	m, err := NewModulator(20e6)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDemodulator(20e6)
	if err != nil {
		t.Fatal(err)
	}
	symbols := []byte{0, 5, 6, 7, 0xA, 0xE, 0xF, 3, 9, 1}
	x := m.ModulateSymbols(symbols)
	got, err := d.DemodulateSymbols(x, 0, len(symbols))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, symbols) {
		t.Errorf("demod = %v, want %v", got, symbols)
	}
}

func TestDemodulateSymbolsUnderNoise(t *testing.T) {
	// DSSS gives ~15 dB of spreading gain; at 0 dB per-sample SNR the
	// soft-correlation receiver should still be essentially error-free.
	m, _ := NewModulator(20e6)
	d, _ := NewDemodulator(20e6)
	rng := rand.New(rand.NewSource(99))
	symbols := make([]byte, 200)
	for i := range symbols {
		symbols[i] = byte(rng.Intn(16))
	}
	x := m.ModulateSymbols(symbols)
	noisy := addNoise(x, 1.0, rng) // signal power ≈ 1 → SNR ≈ 0 dB
	got, err := d.DemodulateSymbols(noisy, 0, len(symbols))
	if err != nil {
		t.Fatal(err)
	}
	errors := 0
	for i := range symbols {
		if got[i] != symbols[i] {
			errors++
		}
	}
	if errors > 2 {
		t.Errorf("%d/%d symbol errors at 0 dB SNR", errors, len(symbols))
	}
}

func TestSoftChipsInputValidation(t *testing.T) {
	d, _ := NewDemodulator(20e6)
	if _, err := d.SoftChips(make([]complex128, 10), 0, 32); err == nil {
		t.Error("expected error for short input")
	}
	if _, err := d.SoftChips(make([]complex128, 1000), -1, 1); err == nil {
		t.Error("expected error for negative offset")
	}
}

func TestReceiveFullFrameRoundTrip(t *testing.T) {
	m, _ := NewModulator(20e6)
	d, _ := NewDemodulator(20e6)
	payload := []byte("cross technology hello")
	ppdu, err := BuildPPDU(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.ReceiveAt(m.ModulateBytes(ppdu), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload = %q, want %q", got, payload)
	}
}

func TestReceiveWithSynchronization(t *testing.T) {
	m, _ := NewModulator(20e6)
	d, _ := NewDemodulator(20e6)
	rng := rand.New(rand.NewSource(7))
	payload := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	ppdu, err := BuildPPDU(payload)
	if err != nil {
		t.Fatal(err)
	}
	sig := m.ModulateBytes(ppdu)

	// Embed the frame at an arbitrary offset in a noisy capture.
	const offset = 1234
	capture := make([]complex128, offset+len(sig)+500)
	for i := range capture {
		capture[i] = complex(rng.NormFloat64()*0.05, rng.NormFloat64()*0.05)
	}
	for i, v := range sig {
		capture[offset+i] += v
	}

	start, err := d.Synchronize(capture)
	if err != nil {
		t.Fatal(err)
	}
	if start != offset {
		t.Fatalf("sync offset = %d, want %d", start, offset)
	}
	got, err := d.ReceiveAt(capture, start)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload = %v, want %v", got, payload)
	}
}

// TestReceiveUnderCarrierRotation receives a lightly noisy frame whose
// carrier arrives at every phase from 0° to 330° in 30° steps: a
// receiver that is not phase-locked to the sender must still decode it.
func TestReceiveUnderCarrierRotation(t *testing.T) {
	m, _ := NewModulator(20e6)
	d, _ := NewDemodulator(20e6)
	rng := rand.New(rand.NewSource(5))
	payload := []byte("rotated carrier")
	ppdu, err := BuildPPDU(payload)
	if err != nil {
		t.Fatal(err)
	}
	sig := m.ModulateBytes(ppdu)
	const offset = 700
	for deg := 0; deg < 360; deg += 30 {
		rot := cmplx.Rect(1, float64(deg)*math.Pi/180)
		rotated := make([]complex128, offset+len(sig)+300)
		for i, v := range sig {
			rotated[offset+i] = v * rot
		}
		capture := addNoise(rotated, 0.07, rng)
		start, err := d.Synchronize(capture)
		if err != nil || start != offset {
			t.Fatalf("%d°: sync offset = %d, %v; want %d", deg, start, err, offset)
		}
		if got, err := d.ReceiveAt(capture, start); err != nil || !bytes.Equal(got, payload) {
			t.Errorf("%d°: payload %q, %v; want %q", deg, got, err, payload)
		}
	}
}

func TestSynchronizeRejectsNoise(t *testing.T) {
	d, _ := NewDemodulator(20e6)
	rng := rand.New(rand.NewSource(13))
	noise := make([]complex128, 20000)
	for i := range noise {
		noise[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	if _, err := d.Synchronize(noise); err == nil {
		t.Error("expected ErrNoSync on pure noise")
	}
}

func TestReceiveCorruptFrame(t *testing.T) {
	m, _ := NewModulator(20e6)
	d, _ := NewDemodulator(20e6)
	ppdu, err := BuildPPDU([]byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	x := m.ModulateBytes(ppdu)
	// Zero out a chunk of the PSDU region to corrupt it decisively.
	for i := len(x) - 2000; i < len(x)-1000; i++ {
		x[i] = 0
	}
	if _, err := d.ReceiveAt(x, 0); err == nil {
		t.Error("expected FCS failure on corrupted frame")
	}
}
