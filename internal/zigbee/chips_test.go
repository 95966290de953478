package zigbee

import (
	"testing"
	"testing/quick"
)

func TestChipTableMatchesPaperTableI(t *testing.T) {
	// Table I of the paper spells out symbols 0 and F; they anchor the
	// whole table since 1-7 are rotations and 8-15 inversions.
	if got := ChipString(0); got != "11011001110000110101001000101110" {
		t.Errorf("symbol 0 chips = %s", got)
	}
	if got := ChipString(0xF); got != "11001001011000000111011110111000" {
		t.Errorf("symbol F chips = %s", got)
	}
}

func TestChipTableRotationStructure(t *testing.T) {
	// Symbols 1-7 are right cyclic shifts by 4 chips of the previous
	// symbol (IEEE 802.15.4 Table 73 structure).
	for s := byte(1); s < 8; s++ {
		prev, cur := ChipSequence(s-1), ChipSequence(s)
		for k := 0; k < ChipsPerSymbol; k++ {
			if cur[k] != prev[(k+ChipsPerSymbol-4)%ChipsPerSymbol] {
				t.Fatalf("symbol %d is not a 4-chip rotation of %d", s, s-1)
			}
		}
	}
}

func TestChipTableConjugateStructure(t *testing.T) {
	// Symbols 8-15 equal 0-7 with odd-indexed chips inverted, which
	// conjugates the OQPSK waveform (negated quadrature rail).
	for s := byte(8); s < NumSymbols; s++ {
		base, cur := ChipSequence(s-8), ChipSequence(s)
		for k := 0; k < ChipsPerSymbol; k++ {
			want := base[k]
			if k%2 == 1 {
				want ^= 1
			}
			if cur[k] != want {
				t.Fatalf("symbol %X chip %d = %d, want %d", s, k, cur[k], want)
			}
		}
	}
}

func TestChipSequencesDistinctAndBalanced(t *testing.T) {
	seen := make(map[string]byte, NumSymbols)
	for s := byte(0); s < NumSymbols; s++ {
		str := ChipString(s)
		if prev, dup := seen[str]; dup {
			t.Errorf("symbols %X and %X share a chip sequence", prev, s)
		}
		seen[str] = s
	}
}

func TestChipSequenceQuasiOrthogonality(t *testing.T) {
	// DSSS sequences within the same half-set differ in at least 12 of
	// 32 chip positions, the property the ML receiver relies on.
	for a := byte(0); a < NumSymbols; a++ {
		for b := a + 1; b < NumSymbols; b++ {
			sa, sb := ChipSequence(a), ChipSequence(b)
			dist := 0
			for k := range sa {
				if sa[k] != sb[k] {
					dist++
				}
			}
			if dist < 12 {
				t.Errorf("symbols %X,%X Hamming distance %d < 12", a, b, dist)
			}
		}
	}
}

func TestSpreadSymbols(t *testing.T) {
	chips := SpreadSymbols([]byte{6, 7})
	if len(chips) != 64 {
		t.Fatalf("len = %d", len(chips))
	}
	want6, want7 := ChipSequence(6), ChipSequence(7)
	for k := 0; k < 32; k++ {
		if chips[k] != want6[k] || chips[32+k] != want7[k] {
			t.Fatal("SpreadSymbols concatenation wrong")
		}
	}
}

func TestBytesSymbolsRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		syms := BytesToSymbols(data)
		if len(syms) != len(data)*2 {
			return false
		}
		back, err := SymbolsToBytes(syms)
		if err != nil || len(back) != len(data) {
			return false
		}
		for i := range data {
			if back[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBytesToSymbolsOrder(t *testing.T) {
	msb := BytesToSymbols([]byte{0x67})
	if msb[0] != 6 || msb[1] != 7 {
		t.Errorf("BytesToSymbols(0x67) = %v, want [6 7], most-significant nibble first", msb)
	}
}

func TestConstants(t *testing.T) {
	if SymbolDuration != 16e-6 {
		t.Errorf("SymbolDuration = %v, want 16µs", SymbolDuration)
	}
	if BitRate != 250e3 {
		t.Errorf("BitRate = %v, want 250kbps", BitRate)
	}
}
