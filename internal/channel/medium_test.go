package channel

import (
	"math"
	"math/rand"
	"testing"

	"symbee/internal/dsp"
)

func constantSignal(n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = 1
	}
	return x
}

func TestMediumSNRAndPad(t *testing.T) {
	cfg := Config{SampleRate: 20e6, SNRdB: 10, Pad: 500}
	m, err := NewMedium(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	x := constantSignal(100000)
	y := m.Transmit(x)
	if len(y) != len(x)+1000 {
		t.Fatalf("len = %d, want %d", len(y), len(x)+1000)
	}
	// Pad regions are noise-only (unit power), signal region has
	// signal+noise ≈ 10^(10/10)+1 = 11.
	padPower := dsp.Power(y[:500])
	sigPower := dsp.Power(y[500 : len(y)-500])
	if math.Abs(padPower-1) > 0.3 {
		t.Errorf("pad power = %v, want ≈1", padPower)
	}
	if math.Abs(sigPower-11) > 1 {
		t.Errorf("signal region power = %v, want ≈11", sigPower)
	}
	// Input must be untouched.
	if x[0] != 1 {
		t.Error("Transmit modified its input")
	}
}

func TestMediumValidation(t *testing.T) {
	if _, err := NewMedium(Config{SampleRate: 0}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("expected error for zero sample rate")
	}
	if _, err := NewMedium(Config{SampleRate: 20e6, Pad: -1}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("expected error for negative pad")
	}
}

func TestMediumCFO(t *testing.T) {
	cfg := Config{SampleRate: 20e6, SNRdB: 40, FreqOffset: 3e6}
	m, err := NewMedium(cfg, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	y := m.Transmit(constantSignal(4096))
	spec := dsp.SpectrumPower(y[:4096])
	best := 0
	for k, p := range spec {
		if p > spec[best] {
			best = k
		}
	}
	want := int(math.Round(3e6 / 20e6 * 4096))
	if best < want-2 || best > want+2 {
		t.Errorf("peak bin = %d, want ≈%d", best, want)
	}
}

func TestMediumInterferenceDutyCycle(t *testing.T) {
	cfg := Config{
		SampleRate: 20e6,
		SNRdB:      -100, // bury the signal so only interference+noise remains
		Interference: InterferenceConfig{
			DutyCycle:     0.3,
			BurstDuration: 300e-6,
			INRdB:         20,
		},
	}
	m, err := NewMedium(cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	y := m.Transmit(constantSignal(2_000_000)) // 100 ms of air
	// Count samples whose instantaneous power indicates a burst
	// (threshold halfway between noise ≈1 and burst ≈100 in dB terms).
	busy := 0
	for _, v := range y {
		if real(v)*real(v)+imag(v)*imag(v) > 10 {
			busy++
		}
	}
	duty := float64(busy) / float64(len(y))
	if duty < 0.15 || duty > 0.45 {
		t.Errorf("observed duty cycle = %v, want ≈0.3", duty)
	}
}

func TestMediumBlockFadingVariesAcrossPackets(t *testing.T) {
	cfg := Config{SampleRate: 20e6, SNRdB: 30, BlockFading: true, RicianK: 0}
	m, err := NewMedium(cfg, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	x := constantSignal(5000)
	p1 := dsp.Power(m.Transmit(x))
	different := false
	for i := 0; i < 10; i++ {
		if p2 := dsp.Power(m.Transmit(x)); math.Abs(p2-p1) > 0.05*p1 {
			different = true
			break
		}
	}
	if !different {
		t.Error("Rayleigh block fading should vary packet powers")
	}
}

func TestMediumMobilityTrackEvolves(t *testing.T) {
	cfg := Config{
		SampleRate: 20e6,
		SNRdB:      40,
		Mobility: &MobilityConfig{
			SpeedMps:         4.2,
			RicianK:          2,
			BlockageRate:     5,
			BlockageLossDB:   10,
			BlockageDuration: 0.01,
		},
	}
	m, err := NewMedium(cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	// Over 50 ms the gain must change noticeably within the capture.
	y := m.Transmit(constantSignal(1_000_000))
	first := dsp.Power(y[:10000])
	varied := false
	for off := 100000; off+10000 < len(y); off += 100000 {
		if p := dsp.Power(y[off : off+10000]); math.Abs(p-first) > 0.2*first {
			varied = true
			break
		}
	}
	if !varied {
		t.Error("mobility gain track did not evolve over 50 ms")
	}
}

func TestMixAtSINR(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sig := make([]complex128, 10000)
	inter := make([]complex128, 10000)
	for i := range sig {
		sig[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		inter[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	out := MixAtSINR(sig, inter, 0, 0) // 0 dB: equal powers
	// Mixed power ≈ signal + interference = 2 × signal power.
	if ratio := dsp.Power(out) / dsp.Power(sig); math.Abs(ratio-2) > 0.1 {
		t.Errorf("power ratio = %v, want 2", ratio)
	}
	// Inputs untouched.
	if dsp.Power(sig) == 0 || &out[0] == &sig[0] {
		t.Error("MixAtSINR must copy")
	}
	// Degenerate inputs pass through.
	out2 := MixAtSINR(sig, nil, 0, 0)
	for i := range sig {
		if out2[i] != sig[i] {
			t.Fatal("empty interference should return copy of signal")
		}
	}
}

func TestScenarioPresets(t *testing.T) {
	ps := Presets()
	if len(ps) != 6 {
		t.Fatalf("presets = %d, want 6", len(ps))
	}
	names := map[string]bool{}
	for _, s := range ps {
		names[s.Name] = true
		cfg := s.Config(20e6, 10, 0, 0, rand.New(rand.NewSource(7)))
		if cfg.SampleRate != 20e6 || cfg.FreqOffset != DefaultFreqOffset {
			t.Errorf("%s: bad config %+v", s.Name, cfg)
		}
		if _, err := NewMedium(cfg, rand.New(rand.NewSource(8))); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	for _, want := range []string{Outdoor, Library, Classroom, Dormitory, Office, Mall} {
		if !names[want] {
			t.Errorf("missing preset %s", want)
		}
	}
	if _, err := ByName("submarine"); err == nil {
		t.Error("expected error for unknown scenario")
	}
	om, err := ByName(OfficeMidnight)
	if err != nil {
		t.Fatal(err)
	}
	if om.Interference.DutyCycle != 0 {
		t.Error("office-midnight should have no interference")
	}
}

func TestOutdoorBeatsMallSNR(t *testing.T) {
	// Sanity: at 25 m the outdoor mean SNR must exceed the mall's, or
	// the Fig. 13 ordering cannot come out right.
	out, _ := ByName(Outdoor)
	mall, _ := ByName(Mall)
	if out.Budget.MeanSNR(25, 0, 0) <= mall.Budget.MeanSNR(25, 0, 0) {
		t.Error("outdoor SNR should exceed mall SNR at 25 m")
	}
}

func TestMobilityPresetMonotone(t *testing.T) {
	walk := MobilityPreset(1.52)
	bike := MobilityPreset(4.16)
	if walk.RicianK <= bike.RicianK {
		t.Error("K should fall with speed")
	}
	if walk.BlockageRate >= bike.BlockageRate {
		t.Error("blockage rate should rise with speed")
	}
}
