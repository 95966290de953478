package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"symbee/internal/channel"
	"symbee/internal/dsp"
	"symbee/internal/wifi"
)

func mustLink(t testing.TB, p Params, comp float64) *Link {
	t.Helper()
	l, err := NewLink(p, comp)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func randomBits(n int, rng *rand.Rand) []byte {
	bits := make([]byte, n)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	return bits
}

func TestNoiselessRawRoundTrip(t *testing.T) {
	for _, p := range []Params{Params20(), Params40()} {
		l := mustLink(t, p, 0)
		rng := rand.New(rand.NewSource(1))
		for trial := 0; trial < 5; trial++ {
			bits := randomBits(40, rng)
			sig, err := l.TransmitBits(bits)
			if err != nil {
				t.Fatal(err)
			}
			got, err := l.ReceiveBits(sig, len(bits))
			if err != nil {
				t.Fatalf("rate %v trial %d: %v", p.SampleRate, trial, err)
			}
			if !bytes.Equal(got, bits) {
				t.Fatalf("rate %v trial %d: decode mismatch\n got %v\nwant %v",
					p.SampleRate, trial, got, bits)
			}
		}
	}
}

func TestNoiselessFrameRoundTrip(t *testing.T) {
	l := mustLink(t, Params20(), 0)
	f := &Frame{Seq: 42, Flags: 0x3, Data: []byte("hello, wifi")[:10]}
	sig, err := l.TransmitFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := l.ReceiveFrame(sig)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != f.Seq || got.Flags != f.Flags || !bytes.Equal(got.Data, f.Data) {
		t.Errorf("frame = %+v, want %+v", got, f)
	}
}

func TestUnsyncDecodeNoiseless(t *testing.T) {
	l := mustLink(t, Params20(), 0)
	bits := []byte{0, 1, 0, 1, 1, 0}
	sig, err := l.TransmitBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	// Scan from the payload onward: the sign-only unsynchronized
	// detector (faithful to §IV-C) also fires on the low-magnitude
	// periodic pattern of the ZigBee synchronization header, which is
	// one of the reasons the paper adds the preamble (§V).
	headerSamples := 12 * 320 // 6 PPDU header bytes
	detected := l.Decoder().DecodeUnsync(l.Phases(sig)[headerSamples:])
	// Expect preamble (4 zeros) + the data bits, evenly spaced.
	want := append([]byte{0, 0, 0, 0}, bits...)
	if len(detected) != len(want) {
		t.Fatalf("detected %d bits, want %d: %+v", len(detected), len(want), detected)
	}
	for i, d := range detected {
		if d.Bit != want[i] {
			t.Errorf("bit %d = %d, want %d", i, d.Bit, want[i])
		}
		if i > 0 {
			gap := d.Pos - detected[i-1].Pos
			if gap < 600 || gap > 680 {
				t.Errorf("bit %d gap = %d samples, want ≈640", i, gap)
			}
		}
	}
}

func TestCFOCompensatedDecode(t *testing.T) {
	// A real channel always has a carrier offset; the canonical +4π/5
	// compensation must recover the bits for every overlapping pair.
	p := Params20()
	rng := rand.New(rand.NewSource(2))
	bits := randomBits(30, rng)
	for _, pair := range []struct{ wc, zk int }{{1, 11}, {1, 12}, {1, 13}, {6, 17}, {13, 24}} {
		off, err := wifi.FreqOffset(pair.wc, pair.zk)
		if err != nil {
			t.Fatal(err)
		}
		l := mustLink(t, p, wifi.CanonicalCompensation)
		sig, err := l.TransmitBits(bits)
		if err != nil {
			t.Fatal(err)
		}
		m, err := channel.NewMedium(channel.Config{
			SampleRate: p.SampleRate,
			SNRdB:      30,
			FreqOffset: off,
			Pad:        300,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		got, err := l.ReceiveBits(m.Transmit(sig), len(bits))
		if err != nil {
			t.Fatalf("pair %+v: %v", pair, err)
		}
		if !bytes.Equal(got, bits) {
			t.Errorf("pair %+v: decode mismatch", pair)
		}
	}
}

func TestUncompensatedCFOBreaksDecoding(t *testing.T) {
	// Negative control: without Appendix B's compensation the stable
	// phases land at 0 and +2π/5, so sign decoding must fail.
	p := Params20()
	rng := rand.New(rand.NewSource(3))
	bits := randomBits(30, rng)
	l := mustLink(t, p, 0) // no compensation
	sig, err := l.TransmitBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	m, err := channel.NewMedium(channel.Config{
		SampleRate: p.SampleRate,
		SNRdB:      30,
		FreqOffset: 3e6,
		Pad:        300,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	got, err := l.ReceiveBits(m.Transmit(sig), len(bits))
	if err == nil && bytes.Equal(got, bits) {
		t.Error("decoding should not survive an uncompensated 3 MHz offset")
	}
}

func TestDecodeUnderNoise(t *testing.T) {
	// At 0 dB (≈ the paper's −5 dB testbed point, see EXPERIMENTS.md)
	// raw-bit decoding lands in the paper's Fig. 22b regime: mostly
	// correct, with residual errors dominated by occasional anchor
	// ambiguity. The paper reports 7.6% there; accept < 15%.
	p := Params20()
	rng := rand.New(rand.NewSource(4))
	l := mustLink(t, p, wifi.CanonicalCompensation)
	bits := randomBits(50, rng)
	sig, err := l.TransmitBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	errorsTotal, captured, trials := 0, 0, 15
	for i := 0; i < trials; i++ {
		m, err := channel.NewMedium(channel.Config{
			SampleRate: p.SampleRate,
			SNRdB:      0,
			FreqOffset: channel.DefaultFreqOffset,
			Pad:        500,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		got, err := l.ReceiveBits(m.Transmit(sig), len(bits))
		if err != nil {
			continue // packet loss, accounted separately
		}
		captured++
		for k := range bits {
			if got[k] != bits[k] {
				errorsTotal++
			}
		}
	}
	if captured < trials*2/3 {
		t.Fatalf("only %d/%d packets captured at 0 dB", captured, trials)
	}
	ber := float64(errorsTotal) / float64(captured*len(bits))
	if ber > 0.15 {
		t.Errorf("BER at 0 dB = %v, want < 15%%", ber)
	}
}

func TestDecodeCleanAtHighSNR(t *testing.T) {
	// At +5 dB every packet must decode perfectly.
	p := Params20()
	rng := rand.New(rand.NewSource(14))
	l := mustLink(t, p, wifi.CanonicalCompensation)
	bits := randomBits(50, rng)
	sig, err := l.TransmitBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		m, err := channel.NewMedium(channel.Config{
			SampleRate: p.SampleRate,
			SNRdB:      5,
			FreqOffset: channel.DefaultFreqOffset,
			Pad:        500,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		got, err := l.ReceiveBits(m.Transmit(sig), len(bits))
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if !bytes.Equal(got, bits) {
			t.Fatalf("trial %d: bit errors at +5 dB", i)
		}
	}
}

func TestPreambleCaptureInDeepNoise(t *testing.T) {
	// Fig. 11 / §V: folding captures the preamble where plain decoding
	// has already collapsed. The paper demonstrates this at its testbed
	// SNR of −10 dB; our full-band per-sample SNR axis sits ≈5 dB lower
	// (see EXPERIMENTS.md calibration), so the equivalent point here is
	// ≈−2 dB — where unsynchronized decoding is indeed useless (checked
	// below) but folding still locks on.
	p := Params20()
	rng := rand.New(rand.NewSource(5))
	l := mustLink(t, p, wifi.CanonicalCompensation)
	bits := randomBits(20, rng)
	sig, err := l.TransmitBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	captured, unsyncUsable := 0, 0
	const trials = 25
	for i := 0; i < trials; i++ {
		m, err := channel.NewMedium(channel.Config{
			SampleRate: p.SampleRate,
			SNRdB:      -2,
			FreqOffset: channel.DefaultFreqOffset,
			Pad:        500,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		phases := l.Phases(m.Transmit(sig))
		if _, err := l.Decoder().CapturePreamble(phases); err == nil {
			captured++
		}
		// Plain sliding-window detection finds nearly nothing here.
		if det := l.Decoder().DecodeUnsync(phases); len(det) >= len(bits) {
			unsyncUsable++
		}
	}
	if captured < trials-3 {
		t.Errorf("preamble captured %d/%d times at -2 dB", captured, trials)
	}
	if unsyncUsable > trials/2 {
		t.Errorf("unsync decoding usable in %d/%d trials; expected folding to be the differentiator", unsyncUsable, trials)
	}
}

// TestNewDecoderRejectsNonFiniteCompensation: a NaN or infinite
// compensation turns every compensated phase into NaN, so the decoder
// could never lock; NewDecoder refuses it and keeps accepting every
// finite value, however large.
func TestNewDecoderRejectsNonFiniteCompensation(t *testing.T) {
	for _, comp := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewDecoder(Params20(), comp); !errors.Is(err, ErrBadCompensation) {
			t.Errorf("NewDecoder(compensation %v) error %v, want ErrBadCompensation", comp, err)
		}
	}
	for _, comp := range []float64{0, math.Copysign(0, -1), StablePhase, -1e300, math.MaxFloat64} {
		if _, err := NewDecoder(Params20(), comp); err != nil {
			t.Errorf("NewDecoder(compensation %v): %v", comp, err)
		}
	}
}

func TestCapturePreambleRejectsNoise(t *testing.T) {
	p := Params20()
	dec, err := NewDecoder(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	falseAlarms := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		noise := make([]float64, 30000)
		for j := range noise {
			noise[j] = (rng.Float64()*2 - 1) * math.Pi
		}
		if _, err := dec.capturePreamble(noise); err == nil {
			falseAlarms++
		}
	}
	if falseAlarms > 1 {
		t.Errorf("%d/%d false preamble captures on uniform noise", falseAlarms, trials)
	}
}

func TestSyncBitMargins(t *testing.T) {
	l := mustLink(t, Params20(), 0)
	bits := []byte{0, 1, 0, 1}
	sig, err := l.TransmitBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	phases := l.Phases(sig)
	anchor, err := l.Decoder().CapturePreamble(phases)
	if err != nil {
		t.Fatal(err)
	}
	margins, err := l.Decoder().SyncBitMargins(phases, anchor, len(bits))
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range margins {
		if bits[i] == 0 && m < 74 {
			t.Errorf("bit %d (0): margin %d, want ≥74", i, m)
		}
		if bits[i] == 1 && m > 10 {
			t.Errorf("bit %d (1): margin %d, want ≤10", i, m)
		}
	}
}

func TestDecodeBitsTruncatedStream(t *testing.T) {
	l := mustLink(t, Params20(), 0)
	sig, err := l.TransmitBits([]byte{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	phases := l.Phases(sig)
	if _, err := l.Decoder().DecodeBits(phases, 50); !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestDecoderDoesNotMutateInput(t *testing.T) {
	p := Params20()
	dec, err := NewDecoder(p, wifi.CanonicalCompensation)
	if err != nil {
		t.Fatal(err)
	}
	phases := []float64{0.1, -0.2, 0.3}
	orig := append([]float64{}, phases...)
	dec.DecodeUnsync(phases)
	dec.capturePreamble(phases)
	for i := range phases {
		if phases[i] != orig[i] {
			t.Fatal("decoder mutated caller's phase stream")
		}
	}
}

func TestPhaseAlphabet17Values(t *testing.T) {
	// Appendix A: a noiseless cross-observed ZigBee signal only produces
	// ∠p[n] = i·π/10. Verify over a random full packet.
	l := mustLink(t, Params20(), 0)
	rng := rand.New(rand.NewSource(7))
	payload := make([]byte, 60)
	rng.Read(payload)
	sig, err := l.PayloadToSignal(payload)
	if err != nil {
		t.Fatal(err)
	}
	// Skip the packet edges: in the first/last half chip slot only one
	// OQPSK rail is active, which produces π/20-grid values. Appendix A
	// applies to the steady state where both rails run.
	phases := l.Phases(sig)
	phases = phases[16 : len(phases)-32]
	seen := map[int]bool{}
	for i, phi := range phases {
		snapped, mult := dsp.QuantizePhase(phi, math.Pi/10)
		if math.Abs(phi-snapped) > 1e-6 {
			t.Fatalf("phase[%d] = %v is not a multiple of π/10", i, phi)
		}
		seen[mult] = true
	}
	// The alphabet is ±i·π/10 for i in [0,8]; ±9π/10 and π never occur
	// in-signal, but the stream boundaries (zero-amplitude half-slots at
	// packet edges) can contribute π. Allow those edge artifacts while
	// requiring the core alphabet.
	for mult := range seen {
		if mult < -8 || mult > 8 {
			// Must come only from the silent packet edges.
			if mult != 10 && mult != -9 && mult != 9 {
				t.Errorf("unexpected phase multiple %d·π/10", mult)
			}
		}
	}
	if !seen[8] || !seen[-8] {
		t.Error("stable phases ±8π/10 missing from alphabet")
	}
}

func TestDecodeFrame40MHz(t *testing.T) {
	l := mustLink(t, Params40(), wifi.CanonicalCompensation)
	rng := rand.New(rand.NewSource(8))
	f := &Frame{Seq: 7, Flags: 1, Data: []byte{0xCA, 0xFE}}
	sig, err := l.TransmitFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	m, err := channel.NewMedium(channel.Config{
		SampleRate: 40e6,
		SNRdB:      0,
		FreqOffset: channel.DefaultFreqOffset,
		Pad:        500,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	got, err := l.ReceiveFrame(m.Transmit(sig))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != f.Seq || !bytes.Equal(got.Data, f.Data) {
		t.Errorf("frame = %+v", got)
	}
}

// TestCapturePreambleMatchesScalarScan pins CapturePreamble, which scans
// through the batched hunt kernel, to the per-sample reference scan over
// noise, single frames at 0–20 dB and back-to-back frames, each whole
// and cut at a random length (every fourth cut inside one fold span).
func TestCapturePreambleMatchesScalarScan(t *testing.T) {
	p := Params20()
	rng := rand.New(rand.NewSource(23))
	l := mustLink(t, p, wifi.CanonicalCompensation)
	d := l.Decoder()
	foldSpan := PreambleBits * p.BitPeriod
	randomFrame := func() *Frame {
		data := make([]byte, rng.Intn(MaxDataBytes+1))
		rng.Read(data)
		return &Frame{Seq: uint8(rng.Intn(256)), Data: data}
	}
	inputs, locked := 0, 0
	for trial := 0; trial < 120; trial++ {
		var phases []float64
		switch trial % 3 {
		case 0:
			// Idle or hot noise: hot noise keeps false-locking.
			scale := math.Pi
			if trial%2 == 0 {
				scale /= 2
			}
			phases = make([]float64, 1000+rng.Intn(40000))
			for i := range phases {
				phases[i] = (2*rng.Float64() - 1) * scale
			}
		case 1:
			phases = transmitPhases(t, l, rng, 0, 20, 500, 6000, randomFrame())
		default:
			phases = transmitPhases(t, l, rng, 10, 16, 1000, 3000, randomFrame(), randomFrame(), randomFrame())
		}
		cut := rng.Intn(len(phases) + 1)
		if trial%4 == 0 {
			cut = rng.Intn(foldSpan)
		}
		for _, capture := range [][]float64{phases, phases[:cut]} {
			want, wantErr := scalarCapturePreamble(d, capture)
			got, gotErr := d.CapturePreamble(capture)
			if got != want || (gotErr == nil) != (wantErr == nil) ||
				(gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Errorf("trial %d, %d phases: CapturePreamble = %d, %v; scalar scan = %d, %v",
					trial, len(capture), got, gotErr, want, wantErr)
			}
			inputs++
			if wantErr == nil {
				locked++
			}
		}
	}
	if locked < inputs/3 {
		t.Errorf("only %d of %d inputs locked: the scan's lock path is barely exercised", locked, inputs)
	}
}
