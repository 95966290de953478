package wifi

import (
	"math"
	"math/rand"
	"testing"

	"symbee/internal/dsp"
	"symbee/internal/zigbee"
)

func randomBits(n int, rng *rand.Rand) []byte {
	bits := make([]byte, n)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	return bits
}

func addAWGN(x []complex128, power float64, rng *rand.Rand) {
	s := math.Sqrt(power / 2)
	for i := range x {
		x[i] += complex(rng.NormFloat64()*s, rng.NormFloat64()*s)
	}
}

func TestReceiverCleanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tx := NewTransmitter(rng)
	rx, err := NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	bits := randomBits(4*BitsPerOFDMSymbol, rng)
	frame, err := tx.FrameWithBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	capture := make([]complex128, len(frame)+2000)
	addAWGN(capture, 1e-4, rng)
	for i, v := range frame {
		capture[600+i] += v
	}
	got, err := rx.Receive(capture, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Bits) != len(bits) {
		t.Fatalf("decoded %d bits, want %d", len(got.Bits), len(bits))
	}
	for i := range bits {
		if got.Bits[i] != bits[i] {
			t.Fatalf("bit %d mismatch", i)
		}
	}
	if got.SymbolEVM > 0.1 {
		t.Errorf("clean EVM = %v", got.SymbolEVM)
	}
}

func TestReceiverWithCFOAndNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tx := NewTransmitter(rng)
	rx, err := NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	bits := randomBits(6*BitsPerOFDMSymbol, rng)
	frame, err := tx.FrameWithBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	const cfo = 40e3 // ≈17 ppm at 2.4 GHz, a typical oscillator error
	capture := make([]complex128, len(frame)+3000)
	for i, v := range frame {
		capture[900+i] += v
	}
	dsp.RotateFrequency(capture, cfo, 20e6, 0)
	addAWGN(capture, dsp.FromDB(-15), rng) // 15 dB SNR
	got, err := rx.Receive(capture, 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.CFO-cfo) > 10e3 {
		t.Errorf("CFO estimate = %v, want ≈%v", got.CFO, cfo)
	}
	errs := 0
	for i := range bits {
		if got.Bits[i] != bits[i] {
			errs++
		}
	}
	if errs > len(bits)/100 {
		t.Errorf("%d/%d bit errors at 15 dB SNR with CFO", errs, len(bits))
	}
}

func TestReceiverNoPacket(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rx, err := NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	noise := make([]complex128, 10000)
	addAWGN(noise, 1, rng)
	if _, err := rx.Receive(noise, 2); err == nil {
		t.Error("expected ErrNoPacket on noise")
	}
}

func TestReceiverTruncatedCapture(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tx := NewTransmitter(rng)
	rx, err := NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	frame, err := tx.Frame(2)
	if err != nil {
		t.Fatal(err)
	}
	capture := make([]complex128, len(frame))
	copy(capture, frame)
	// Ask for more symbols than the frame holds.
	if _, err := rx.Receive(capture, 50); err == nil {
		t.Error("expected ErrShortInput")
	}
}

func TestWiFiSurvivesConcurrentZigBee(t *testing.T) {
	// The paper's non-intrusiveness claim, quantified: a WiFi frame
	// 15 dB above a concurrent SymBee transmission still decodes with
	// zero errors — ZigBee's 2 MHz droplet corrupts only 5 of 48
	// subcarriers, and QPSK margins absorb it.
	rng := rand.New(rand.NewSource(5))
	tx := NewTransmitter(rng)
	rx, err := NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	bits := randomBits(4*BitsPerOFDMSymbol, rng)
	frame, err := tx.FrameWithBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := zigbee.NewModulator(20e6)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 60)
	for i := range payload {
		payload[i] = 0x67
	}
	zb := mod.ModulateBytes(payload)
	dsp.NormalizePower(zb, dsp.FromDB(-15)) // 15 dB below the WiFi frame

	capture := make([]complex128, len(frame)+4000)
	for i, v := range frame {
		capture[500+i] += v
	}
	for i, v := range zb {
		if 500+i < len(capture) {
			capture[500+i] += v
		}
	}
	addAWGN(capture, dsp.FromDB(-25), rng)

	got, err := rx.Receive(capture, 4)
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for i := range bits {
		if got.Bits[i] != bits[i] {
			errs++
		}
	}
	if errs > 0 {
		t.Errorf("%d bit errors with concurrent ZigBee at -15 dB", errs)
	}
}
