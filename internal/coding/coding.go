// Package coding provides the link-layer codes used around SymBee: the
// Hamming(7,4) single-error-correcting code the paper applies in the
// interference study (Fig. 21) and bit/byte packing helpers.
package coding

import "fmt"

// Hamming(7,4) in systematic form: data bits d1..d4, parity bits
//
//	p1 = d1 ⊕ d2 ⊕ d4
//	p2 = d1 ⊕ d3 ⊕ d4
//	p3 = d2 ⊕ d3 ⊕ d4
//
// laid out in the classic positions [p1 p2 d1 p3 d2 d3 d4] so the
// syndrome directly indexes the flipped position.
const (
	// HammingDataBits is the number of data bits per codeword.
	HammingDataBits = 4
	// HammingCodeBits is the number of coded bits per codeword.
	HammingCodeBits = 7
)

// HammingEncode maps 4 data bits to a 7-bit codeword. Bits are one byte
// each, value 0 or 1; bit values are reduced modulo 2. The fixed-size
// array signature makes malformed lengths a compile error rather than a
// runtime fault.
func HammingEncode(data [HammingDataBits]byte) [HammingCodeBits]byte {
	d1, d2, d3, d4 := data[0]&1, data[1]&1, data[2]&1, data[3]&1
	p1 := d1 ^ d2 ^ d4
	p2 := d1 ^ d3 ^ d4
	p3 := d2 ^ d3 ^ d4
	return [HammingCodeBits]byte{p1, p2, d1, p3, d2, d3, d4}
}

// HammingDecode corrects up to one bit error in a 7-bit codeword and
// returns the 4 data bits along with whether a correction was applied.
// Two-bit errors are miscorrected, as is inherent to Hamming(7,4).
func HammingDecode(code [HammingCodeBits]byte) (data [HammingDataBits]byte, corrected bool) {
	var c [HammingCodeBits]byte
	for i, b := range code {
		c[i] = b & 1
	}
	s1 := c[0] ^ c[2] ^ c[4] ^ c[6]
	s2 := c[1] ^ c[2] ^ c[5] ^ c[6]
	s3 := c[3] ^ c[4] ^ c[5] ^ c[6]
	syndrome := int(s1) | int(s2)<<1 | int(s3)<<2
	if syndrome != 0 {
		c[syndrome-1] ^= 1
		corrected = true
	}
	return [HammingDataBits]byte{c[2], c[4], c[5], c[6]}, corrected
}

// HammingEncodeBits encodes an arbitrary bit string, zero-padding the
// final block. The returned stream length is a multiple of 7.
func HammingEncodeBits(bits []byte) []byte {
	out := make([]byte, 0, (len(bits)+3)/4*HammingCodeBits)
	var block [HammingDataBits]byte
	for i := 0; i < len(bits); i += HammingDataBits {
		for j := range block {
			if i+j < len(bits) {
				block[j] = bits[i+j] & 1
			} else {
				block[j] = 0
			}
		}
		cw := HammingEncode(block)
		out = append(out, cw[:]...)
	}
	return out
}

// HammingDecodeBits decodes a stream of 7-bit codewords produced by
// HammingEncodeBits and returns the data bits (including any padding)
// plus the number of corrected codewords. The input length must be a
// multiple of 7.
func HammingDecodeBits(bits []byte) (data []byte, corrections int, err error) {
	if len(bits)%HammingCodeBits != 0 {
		return nil, 0, fmt.Errorf("coding: coded length %d is not a multiple of %d", len(bits), HammingCodeBits)
	}
	data = make([]byte, 0, len(bits)/HammingCodeBits*HammingDataBits)
	for i := 0; i < len(bits); i += HammingCodeBits {
		var cw [HammingCodeBits]byte
		copy(cw[:], bits[i:i+HammingCodeBits])
		block, corrected := HammingDecode(cw)
		if corrected {
			corrections++
		}
		data = append(data, block[:]...)
	}
	return data, corrections, nil
}

// BytesToBits unpacks bytes MSB-first into one bit per byte.
func BytesToBits(data []byte) []byte {
	bits := make([]byte, 0, len(data)*8)
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			bits = append(bits, b>>i&1)
		}
	}
	return bits
}

// BitsToBytes packs bits (MSB-first) into bytes; the bit count must be a
// multiple of 8.
func BitsToBytes(bits []byte) ([]byte, error) {
	if len(bits)%8 != 0 {
		return nil, fmt.Errorf("coding: bit count %d is not a multiple of 8", len(bits))
	}
	data := make([]byte, len(bits)/8)
	for i, b := range bits {
		if b&1 == 1 {
			data[i/8] |= 1 << (7 - i%8)
		}
	}
	return data, nil
}
