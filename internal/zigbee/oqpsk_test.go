package zigbee

import (
	"math"
	"math/rand"
	"testing"

	"symbee/internal/dsp"
)

func TestNewModulatorRates(t *testing.T) {
	tests := []struct {
		rate    float64
		wantSPS int
		wantErr bool
	}{
		{20e6, 10, false},
		{40e6, 20, false},
		{4e6, 2, false},
		{2e6, 0, true},  // 1 sample/slot is too coarse
		{21e6, 0, true}, // non-integer samples per slot
		{0, 0, true},
		{-5, 0, true},
	}
	for _, tt := range tests {
		m, err := NewModulator(tt.rate)
		if tt.wantErr {
			if err == nil {
				t.Errorf("rate %v: expected error", tt.rate)
			}
			continue
		}
		if err != nil {
			t.Errorf("rate %v: %v", tt.rate, err)
			continue
		}
		if m.SamplesPerSlot() != tt.wantSPS {
			t.Errorf("rate %v: sps = %d, want %d", tt.rate, m.SamplesPerSlot(), tt.wantSPS)
		}
	}
}

func TestModulateChipsLengthAndRails(t *testing.T) {
	m, err := NewModulator(20e6)
	if err != nil {
		t.Fatal(err)
	}
	// One positive chip on each rail.
	x := m.ModulateChips([]byte{1, 1})
	if len(x) != 3*10 {
		t.Fatalf("len = %d, want 30", len(x))
	}
	// In-phase pulse occupies samples [0,20); quadrature [10,30).
	if real(x[5]) <= 0 || imag(x[5]) != 0 {
		t.Errorf("sample 5 = %v: I rail should be active, Q idle", x[5])
	}
	if imag(x[25]) <= 0 || real(x[25]) != 0 {
		t.Errorf("sample 25 = %v: Q rail should be active, I idle", x[25])
	}
	// Peak of the in-phase half-sine at its center.
	if math.Abs(real(x[10])-1) > 1e-12 {
		t.Errorf("I pulse peak = %v, want 1", real(x[10]))
	}
}

func TestModulateChipPolarity(t *testing.T) {
	m, err := NewModulator(20e6)
	if err != nil {
		t.Fatal(err)
	}
	pos := m.ModulateChips([]byte{1})
	neg := m.ModulateChips([]byte{0})
	for i := range pos {
		if real(pos[i]) != -real(neg[i]) {
			t.Fatalf("chip polarity not antisymmetric at sample %d", i)
		}
	}
}

func TestModulatedSignalPower(t *testing.T) {
	m, err := NewModulator(20e6)
	if err != nil {
		t.Fatal(err)
	}
	x := m.ModulateSymbols([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	p := dsp.Power(x)
	// Two offset half-sine rails average sin^2 = 0.5 each → power ≈ 1.
	if p < 0.9 || p > 1.1 {
		t.Errorf("mean power = %v, want ≈1", p)
	}
}

func TestSymbolPairStablePhase(t *testing.T) {
	// The paper's central PHY observation (Figs. 6-8): symbol pairs
	// (6,7) and (E,F) contain a 5 µs continuous sinusoid that
	// cross-observes as an 84-sample stable run at ±4π/5, and the two
	// runs have opposite signs.
	m, err := NewModulator(20e6)
	if err != nil {
		t.Fatal(err)
	}
	stable := func(symbols []byte) (length int, value float64) {
		x := m.ModulateSymbols(symbols)
		ph := dsp.PhaseDiffStream(x, 16)
		start, n := dsp.LongestStableRun(ph, 0.05)
		return n, ph[start]
	}

	len67, val67 := stable([]byte{6, 7})
	lenEF, valEF := stable([]byte{0xE, 0xF})
	if len67 < 84 {
		t.Errorf("(6,7) stable run = %d, want >= 84", len67)
	}
	if lenEF < 84 {
		t.Errorf("(E,F) stable run = %d, want >= 84", lenEF)
	}
	want := 4 * math.Pi / 5
	if math.Abs(math.Abs(val67)-want) > 1e-6 {
		t.Errorf("(6,7) stable phase = %v, want ±4π/5", val67)
	}
	if math.Abs(math.Abs(valEF)-want) > 1e-6 {
		t.Errorf("(E,F) stable phase = %v, want ±4π/5", valEF)
	}
	if val67*valEF >= 0 {
		t.Errorf("(6,7) and (E,F) phases should have opposite signs: %v vs %v", val67, valEF)
	}
}

func TestSymbolPairStablePhase40MHz(t *testing.T) {
	// §VI-B: at 40 Msps the lag doubles to 32 and the stable run doubles
	// to 168 values while the phase stays ±4π/5.
	m, err := NewModulator(40e6)
	if err != nil {
		t.Fatal(err)
	}
	x := m.ModulateSymbols([]byte{6, 7})
	ph := dsp.PhaseDiffStream(x, 32)
	start, n := dsp.LongestStableRun(ph, 0.05)
	if n < 168 {
		t.Errorf("stable run = %d, want >= 168", n)
	}
	if math.Abs(math.Abs(ph[start])-4*math.Pi/5) > 1e-6 {
		t.Errorf("stable phase = %v, want ±4π/5", ph[start])
	}
}

// refModulateChips is the original two-rail modulator, kept as the
// bit-exact oracle for ModulateChips: it accumulates every pulse into
// separate in-phase and quadrature float rails and zips them at the
// end. Each rail sample receives at most one pulse sample, so the
// output is 0+a·p per rail (which turns a −0 into +0).
func refModulateChips(m *Modulator, chips []byte) []complex128 {
	sps := m.samplesPerSlot
	out := make([]complex128, (len(chips)+1)*sps)
	re := make([]float64, len(out))
	im := make([]float64, len(out))
	for k, c := range chips {
		a := 1.0
		if c == 0 {
			a = -1.0
		}
		off := k * sps
		rail := re
		if k%2 == 1 {
			rail = im
		}
		for i, p := range m.pulse {
			rail[off+i] += a * p
		}
	}
	for i := range out {
		out[i] = complex(re[i], im[i])
	}
	return out
}

// sameBits reports the first sample where got and want differ in
// their IEEE-754 bit patterns (so +0 and −0 differ), or -1.
func sameBits(got, want []complex128) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			return i
		}
	}
	return -1
}

// TestModulateChipsMatchesReference pins the modulator bit for bit to
// the two-rail oracle over random chip streams at 20 and 40 Msps,
// including empty and odd-length streams and non-binary chip bytes
// (any nonzero chip is a positive pulse).
func TestModulateChipsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, rate := range []float64{20e6, 40e6} {
		m, err := NewModulator(rate)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 40; trial++ {
			chips := make([]byte, rng.Intn(200))
			for i := range chips {
				chips[i] = byte(rng.Intn(2))
				if rng.Intn(16) == 0 {
					chips[i] = byte(rng.Intn(256))
				}
			}
			want := refModulateChips(m, chips)
			if i := sameBits(m.ModulateChips(chips), want); i >= 0 {
				t.Fatalf("rate %v, %d chips: sample %d differs from the reference", rate, len(chips), i)
			}
			// A recycled buffer: nothing it held may survive.
			used := dirty(len(want) + rng.Intn(50))[:len(want)]
			m.ModulateChipsRange(used, chips, 0)
			if i := sameBits(used, want); i >= 0 {
				t.Fatalf("rate %v, %d chips into a used buffer: sample %d differs from the reference",
					rate, len(chips), i)
			}
			symbols := make([]byte, rng.Intn(20))
			for i := range symbols {
				symbols[i] = byte(rng.Intn(NumSymbols))
			}
			want = refModulateChips(m, SpreadSymbols(symbols))
			if i := sameBits(m.ModulateSymbols(symbols), want); i >= 0 {
				t.Fatalf("rate %v, %d symbols: sample %d differs from the reference", rate, len(symbols), i)
			}
			data := make([]byte, rng.Intn(12))
			rng.Read(data)
			want = refModulateChips(m, SpreadSymbols(BytesToSymbols(data)))
			if i := sameBits(m.ModulateBytes(data), want); i >= 0 {
				t.Fatalf("rate %v, %d bytes: sample %d differs from the reference", rate, len(data), i)
			}
		}
	}
}

// dirty returns a buffer of n samples holding −0 and NaN, the values
// a partial overwrite would most visibly leave behind.
func dirty(n int) []complex128 {
	buf := make([]complex128, n)
	for i := range buf {
		buf[i] = complex(math.Copysign(0, -1), math.NaN())
	}
	return buf
}

// TestModulateChipsRangeMatchesModulateChips pins the range form to the
// whole-waveform modulator bit for bit: over random chip streams at 20
// and 40 Msps (empty, single-chip and streams longer than 4096 samples
// included, non-binary chip bytes too), ModulateChipsRange written into
// a dirty buffer must equal ModulateChips(chips)[from:from+n] for every
// from in the first two slots, in the final tail slot and at random
// offsets between, and for n ∈ {1, sps−1, sps, 4096, to the end}
// (clipped at the end of the waveform).
func TestModulateChipsRangeMatchesModulateChips(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, rate := range []float64{20e6, 40e6} {
		m, err := NewModulator(rate)
		if err != nil {
			t.Fatal(err)
		}
		sps := m.SamplesPerSlot()
		for trial := 0; trial < 12; trial++ {
			size := rng.Intn(600)
			if trial < 2 {
				size = trial
			}
			chips := make([]byte, size)
			for i := range chips {
				chips[i] = byte(rng.Intn(2))
				if rng.Intn(16) == 0 {
					chips[i] = byte(rng.Intn(256))
				}
			}
			want := m.ModulateChips(chips)
			total := len(want)
			var froms []int
			for i := 0; i < 2*sps && i < total; i++ {
				froms = append(froms, i)
			}
			for i := total - sps; i < total; i++ {
				if i >= 2*sps {
					froms = append(froms, i)
				}
			}
			for k := 0; k < 8; k++ {
				froms = append(froms, rng.Intn(total))
			}
			for _, from := range froms {
				for _, n := range []int{1, sps - 1, sps, 4096, total - from} {
					n = min(n, total-from)
					got := dirty(n)
					m.ModulateChipsRange(got, chips, from)
					if i := sameBits(got, want[from:from+n]); i >= 0 {
						t.Fatalf("rate %v, %d chips, from %d, n %d: sample %d differs from ModulateChips",
							rate, len(chips), from, n, i)
					}
				}
			}
		}
	}
}
