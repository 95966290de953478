package ctc

import (
	"math"
	"math/rand"
	"testing"
)

// newTestMedium builds a medium from the default config with the given
// duration and seed.
func newTestMedium(t *testing.T, duration float64, seed int64) *Medium {
	t.Helper()
	cfg := DefaultMedium()
	cfg.Duration = duration
	cfg.Seed = seed
	m, err := NewMedium(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMediumBurstsAndDetection(t *testing.T) {
	m := newTestMedium(t, 1.0, 1)
	m.AddBurst(0.1, 0.001, 20)
	m.AddBurst(0.2, 0.003, 20)
	bursts := m.DetectBursts(6, 0.2e-3, 0.3e-3)
	if len(bursts) != 2 {
		t.Fatalf("detected %d bursts, want 2: %+v", len(bursts), bursts)
	}
	if math.Abs(bursts[0].Start-0.1) > 1e-4 || math.Abs(bursts[0].Duration-0.001) > 2e-4 {
		t.Errorf("burst 0 = %+v", bursts[0])
	}
	if math.Abs(bursts[1].Duration-0.003) > 2e-4 {
		t.Errorf("burst 1 = %+v", bursts[1])
	}
}

func TestMediumValidation(t *testing.T) {
	if _, err := NewMedium(MediumConfig{Rate: 100e3}); err == nil {
		t.Error("expected error for zero duration")
	}
	if _, err := NewMedium(MediumConfig{Duration: 1}); err == nil {
		t.Error("expected error for zero rate")
	}
	if DefaultMedium().Validate() == nil {
		t.Error("DefaultMedium must not validate until Duration is set")
	}
}

func TestMediumNoiseDeterministic(t *testing.T) {
	a := newTestMedium(t, 0.5, 9)
	b := newTestMedium(t, 0.5, 9)
	if a.MeanRSSI(0, 0.5) != b.MeanRSSI(0, 0.5) {
		t.Error("same seed must reproduce the noise fill")
	}
	c := newTestMedium(t, 0.5, 10)
	if a.MeanRSSI(0, 0.5) == c.MeanRSSI(0, 0.5) {
		t.Error("different seeds must change the noise fill")
	}
}

func TestMediumInterferenceDuty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := newTestMedium(t, 5, 3)
	m.AddInterference(0.3, 1e-3, 20, rng)
	bursts := m.DetectBursts(6, 0.2e-3, 0.3e-3)
	var busy float64
	for _, b := range bursts {
		busy += b.Duration
	}
	duty := busy / m.Duration()
	if duty < 0.2 || duty > 0.4 {
		t.Errorf("observed duty = %v, want ≈0.3", duty)
	}
}

func TestNominalRates(t *testing.T) {
	// The published operating points the Fig. 16 comparison relies on.
	tests := []struct {
		s        Scheme
		lo, hi   float64
		wantName string
	}{
		{NewFreeBee(), 15, 25, "FreeBee"},
		{NewAFreeBee(), 40, 60, "A-FreeBee"},
		{NewEMF(), 350, 450, "EMF"},
		{NewDCTC(), 350, 500, "DCTC"},
		{NewCMorse(), 200, 230, "C-Morse"},
	}
	for _, tt := range tests {
		if got := tt.s.Name(); got != tt.wantName {
			t.Errorf("name = %s, want %s", got, tt.wantName)
		}
		r := tt.s.NominalRate()
		if r < tt.lo || r > tt.hi {
			t.Errorf("%s nominal rate = %v bps, want [%v,%v]", tt.s.Name(), r, tt.lo, tt.hi)
		}
	}
}

func TestSchemesRoundTripClean(t *testing.T) {
	// Every scheme must decode its own bits exactly on a clean medium.
	rng := rand.New(rand.NewSource(4))
	for _, s := range All() {
		t.Run(s.Name(), func(t *testing.T) {
			bits := make([]byte, 40)
			for i := range bits {
				bits[i] = byte(rng.Intn(2))
			}
			duration := float64(len(bits))/s.NominalRate()*1.5 + 1
			m := newTestMedium(t, duration, 4)
			if _, err := s.Encode(m, bits, 0.1, 20); err != nil {
				t.Fatal(err)
			}
			got, err := s.Decode(m, len(bits))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(bits) {
				t.Fatalf("decoded %d bits, want %d", len(got), len(bits))
			}
			for i := range bits {
				if got[i] != bits[i] {
					t.Fatalf("bit %d = %d, want %d", i, got[i], bits[i])
				}
			}
		})
	}
}

func TestMeasureCleanGoodputNearNominal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, s := range All() {
		res, err := Measure(s, 60, 20, nil, rng)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.BER > 0.02 {
			t.Errorf("%s: clean BER = %v", s.Name(), res.BER)
		}
		if res.Goodput < 0.6*s.NominalRate() || res.Goodput > 1.4*s.NominalRate() {
			t.Errorf("%s: goodput %v vs nominal %v", s.Name(), res.Goodput, s.NominalRate())
		}
	}
}

func TestMeasureUnderInterferenceDegrades(t *testing.T) {
	// Packet-level schemes must suffer under WiFi interference (their
	// fundamental weakness vs SymBee's phase-level decoding).
	rng := rand.New(rand.NewSource(6))
	env := &InterferenceEnv{DutyCycle: 0.3, BurstDuration: 2e-3, INRdB: 20}
	degraded := 0
	for _, s := range All() {
		res, err := Measure(s, 60, 20, env, rng)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.BER > 0.05 {
			degraded++
		}
	}
	if degraded < 3 {
		t.Errorf("only %d/5 schemes degraded under 30%% interference", degraded)
	}
}

func TestEncodeTooShortMedium(t *testing.T) {
	m := newTestMedium(t, 0.01, 7)
	bits := make([]byte, 100)
	for _, s := range All() {
		if _, err := s.Encode(m, bits, 0, 20); err == nil {
			t.Errorf("%s: expected error on too-short medium", s.Name())
		}
	}
}

func TestSchemeValidateOperatingPoints(t *testing.T) {
	// Every published operating point validates.
	for _, s := range All() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: published point invalid: %v", s.Name(), err)
		}
	}
	// Broken points are rejected by Validate, Encode and Occupancy alike.
	broken := []Scheme{
		&FreeBee{Interval: 10e-3, Granularity: 1e-3, BitsPerBeacon: 4, Repeat: 2, BeaconDuration: 576e-6},
		&FreeBee{Interval: 102.4e-3, Granularity: 1e-3, BitsPerBeacon: 4, Repeat: 0, BeaconDuration: 576e-6},
		&CMorse{Dot: 1e-3, Dash: 0.5e-3, Gap: 3.5e-3},
		&CMorse{Dot: 0, Dash: 1e-3, Gap: 3.5e-3},
		&DCTC{PacketDuration: 1e-3, MinGap: 2e-3, GapStep: 0, BitsPerGap: 2},
		&EMF{SlotDuration: 1e-3, SlotsPerFrame: 1, PacketDuration: 0.5e-3},
		&EMF{SlotDuration: 1e-3, SlotsPerFrame: 5, PacketDuration: 2e-3},
	}
	m := newTestMedium(t, 5, 8)
	for _, s := range broken {
		if s.Validate() == nil {
			t.Errorf("%T: broken point validated", s)
		}
		if _, err := s.Encode(m, []byte{0, 1}, 0.1, 20); err == nil {
			t.Errorf("%T: Encode accepted broken point", s)
		}
		if _, _, err := s.Occupancy(8); err == nil {
			t.Errorf("%T: Occupancy accepted broken point", s)
		}
	}
}

func TestOccupancyMatchesEncode(t *testing.T) {
	// On balanced data the occupancy model must agree with the airtime
	// Encode actually reports, and air can never exceed wall.
	for _, s := range All() {
		if _, _, err := s.Occupancy(0); err == nil {
			t.Errorf("%s: Occupancy accepted zero bits", s.Name())
		}
		wall, air, err := s.Occupancy(40)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if wall <= 0 || air <= 0 || air > wall {
			t.Fatalf("%s: wall=%v air=%v", s.Name(), wall, air)
		}
		bits := make([]byte, 40)
		for i := range bits {
			bits[i] = byte(i % 2) // balanced
		}
		m := newTestMedium(t, wall*2+1, 11)
		enc, err := s.Encode(m, bits, 0.1, 20)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if enc < 0.8*wall || enc > 1.2*wall {
			t.Errorf("%s: Encode airtime %v vs Occupancy wall %v", s.Name(), enc, wall)
		}
	}
}

// TestDownlinkTimingModel pins the one-byte ack occupancy the
// reliability layer's reverse channel is built on.
func TestDownlinkTimingModel(t *testing.T) {
	wall, air, err := NewCMorse().Occupancy(8)
	if err != nil {
		t.Fatal(err)
	}
	// 8 bits at the published point: 8·((0.576+1.728)/2 + 3.5) ms wall,
	// 8·1.152 ms air.
	if math.Abs(wall-37.216e-3) > 1e-6 {
		t.Errorf("wall = %v, want ≈37.2 ms", wall)
	}
	if math.Abs(air-9.216e-3) > 1e-6 {
		t.Errorf("air = %v, want ≈9.2 ms", air)
	}
	// FreeBee is far slower but far lower duty.
	fbWall, fbAir, err := NewFreeBee().Occupancy(8)
	if err != nil {
		t.Fatal(err)
	}
	if fbWall <= wall {
		t.Errorf("FreeBee wall %v should exceed C-Morse wall %v", fbWall, wall)
	}
	if fbAir/fbWall >= air/wall {
		t.Errorf("FreeBee duty %v should be below C-Morse duty %v", fbAir/fbWall, air/wall)
	}
}
