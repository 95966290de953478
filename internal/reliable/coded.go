package reliable

import (
	"fmt"

	"symbee/internal/coding"
	"symbee/internal/core"
)

// MaxCodedDataBytes is the frame data capacity in escalated (coded)
// mode. Hamming(7,4)-coding the whole frame bit string expands
// HeaderBits+8L+CRCBits = 40+8L bits to ceil((40+8L)/4)*7 coded bits,
// which must fit the MaxPayloadBits−PreambleBits = 121 bits of payload
// room left after the broadcast preamble: L=3 codes to 112 bits, L=4
// would need 126. (A test pins this derivation.)
const MaxCodedDataBytes = 3

// codedLen returns the Hamming(7,4) codeword length for nBits data
// bits, including the encoder's zero-padding to whole 4-bit blocks.
func codedLen(nBits int) int {
	blocks := (nBits + coding.HammingDataBits - 1) / coding.HammingDataBits
	return blocks * coding.HammingCodeBits
}

// CodedFrameBits serializes f and Hamming(7,4)-codes the entire bit
// string — header, sequence, data and CRC — so the receiver can correct
// one bit error per 7-bit block before the checksum is consulted.
func CodedFrameBits(f *core.Frame) ([]byte, error) {
	if len(f.Data) > MaxCodedDataBytes {
		return nil, fmt.Errorf("%w in coded mode (max %d)", core.ErrDataTooLong, MaxCodedDataBytes)
	}
	bits, err := f.FrameBits()
	if err != nil {
		return nil, err
	}
	return coding.HammingEncodeBits(bits), nil
}

// EncodeCodedFrame maps a coded frame onto a broadcast payload
// (preamble codewords followed by the coded bit codewords).
func EncodeCodedFrame(f *core.Frame) ([]byte, error) {
	bits, err := CodedFrameBits(f)
	if err != nil {
		return nil, err
	}
	return core.EncodeBits(bits)
}

// DecodeCodedPhases decodes one Hamming(7,4)-coded frame from a phase
// capture in synchronized mode: lock on the preamble, then decode at
// the captured anchor (decodeCodedNear).
func DecodeCodedPhases(d *core.Decoder, phases []float64) (*core.Frame, error) {
	anchor, err := d.CapturePreamble(phases)
	if err != nil {
		return nil, err
	}
	return decodeCodedNear(d, phases, anchor)
}

// decodeCodedNear decodes the coded header to learn the length, decodes
// and corrects the full codeword, then validates the CRC over the
// corrected bits. Like the plain frame scanner it retries the decode
// one bit period around the preamble anchor, since a marginal fold can
// lock a symbol early or late.
func decodeCodedNear(d *core.Decoder, phases []float64, anchor int) (*core.Frame, error) {
	bp := d.Params().BitPeriod
	var firstErr error
	for _, shift := range []int{0, bp, -bp} {
		if anchor+shift < 0 {
			continue
		}
		f, err := decodeCodedAt(d, phases, anchor+shift)
		if err == nil {
			return f, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}

func decodeCodedAt(d *core.Decoder, phases []float64, anchor int) (*core.Frame, error) {
	hbits, err := d.DecodeSyncBits(phases, anchor, codedLen(core.HeaderBits))
	if err != nil {
		return nil, err
	}
	hdr, _, err := coding.HammingDecodeBits(hbits)
	if err != nil {
		return nil, err
	}
	version := hdr[0]<<3 | hdr[1]<<2 | hdr[2]<<1 | hdr[3]
	if version != core.Version {
		return nil, fmt.Errorf("%w: coded 0x%X", core.ErrBadVersion, version)
	}
	dataLen := 0
	for _, b := range hdr[8:16] {
		dataLen = dataLen<<1 | int(b)
	}
	if dataLen > MaxCodedDataBytes {
		return nil, fmt.Errorf("%w: coded header claims %d data bytes", core.ErrBadLength, dataLen)
	}
	// 40+8L is always a multiple of HammingDataBits, so the codeword
	// carries no padding and the corrected bits are exactly the frame.
	total := core.HeaderBits + dataLen*8 + core.CRCBits
	all, err := d.DecodeSyncBits(phases, anchor, codedLen(total))
	if err != nil {
		return nil, err
	}
	bits, _, err := coding.HammingDecodeBits(all)
	if err != nil {
		return nil, err
	}
	return core.ParseFrameBits(bits[:total])
}
