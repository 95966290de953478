package coding

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func dataWord(v int) [HammingDataBits]byte {
	return [HammingDataBits]byte{byte(v >> 3 & 1), byte(v >> 2 & 1), byte(v >> 1 & 1), byte(v & 1)}
}

func TestHammingRoundTripAllDataWords(t *testing.T) {
	for v := 0; v < 16; v++ {
		data := dataWord(v)
		code := HammingEncode(data)
		got, corrected := HammingDecode(code)
		if corrected {
			t.Errorf("data %04b: clean codeword reported a correction", v)
		}
		if got != data {
			t.Errorf("data %04b: decode = %v", v, got)
		}
	}
}

func TestHammingCorrectsEverySingleBitError(t *testing.T) {
	for v := 0; v < 16; v++ {
		data := dataWord(v)
		code := HammingEncode(data)
		for pos := 0; pos < 7; pos++ {
			bad := code
			bad[pos] ^= 1
			got, corrected := HammingDecode(bad)
			if !corrected {
				t.Errorf("data %04b pos %d: correction not reported", v, pos)
			}
			if got != data {
				t.Errorf("data %04b pos %d: decode = %v, want %v", v, pos, got, data)
			}
		}
	}
}

func TestHammingMinimumDistanceIsThree(t *testing.T) {
	words := make([][HammingCodeBits]byte, 0, 16)
	for v := 0; v < 16; v++ {
		words = append(words, HammingEncode(dataWord(v)))
	}
	for a := 0; a < 16; a++ {
		for b := a + 1; b < 16; b++ {
			dist := 0
			for k := 0; k < 7; k++ {
				if words[a][k] != words[b][k] {
					dist++
				}
			}
			if dist < 3 {
				t.Errorf("codewords %d,%d distance %d < 3", a, b, dist)
			}
		}
	}
}

func TestHammingBitsStreamRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		bits := make([]byte, len(raw))
		for i, b := range raw {
			bits[i] = b & 1
		}
		coded := HammingEncodeBits(bits)
		if len(coded)%7 != 0 {
			return false
		}
		decoded, corrections, err := HammingDecodeBits(coded)
		if err != nil || corrections != 0 {
			return false
		}
		// Decoded includes padding to a multiple of 4.
		if len(decoded) < len(bits) {
			return false
		}
		return bytes.Equal(decoded[:len(bits)], bits)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHammingDecodeBitsBadLength(t *testing.T) {
	if _, _, err := HammingDecodeBits(make([]byte, 6)); err == nil {
		t.Error("expected error for length not multiple of 7")
	}
}

func TestHammingStreamCorrectsScatteredErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bits := make([]byte, 400)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	coded := HammingEncodeBits(bits)
	// Flip one bit in every codeword.
	for i := 0; i < len(coded); i += 7 {
		coded[i+rng.Intn(7)] ^= 1
	}
	decoded, corrections, err := HammingDecodeBits(coded)
	if err != nil {
		t.Fatal(err)
	}
	if corrections != len(coded)/7 {
		t.Errorf("corrections = %d, want %d", corrections, len(coded)/7)
	}
	if !bytes.Equal(decoded[:len(bits)], bits) {
		t.Error("scattered single errors not fully corrected")
	}
}

func TestBitsBytesRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		bits := BytesToBits(data)
		if len(bits) != len(data)*8 {
			return false
		}
		back, err := BitsToBytes(bits)
		return err == nil && bytes.Equal(back, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := BitsToBytes(make([]byte, 7)); err == nil {
		t.Error("expected error for length not multiple of 8")
	}
	// MSB-first convention.
	bits := BytesToBits([]byte{0x80})
	if bits[0] != 1 || bits[7] != 0 {
		t.Errorf("MSB-first violated: %v", bits)
	}
}
