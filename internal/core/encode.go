package core

import (
	"fmt"

	"symbee/internal/coding"
	"symbee/internal/zigbee"
)

// Frame layout constants. A SymBee frame occupies the payload of one
// ZigBee packet, one payload byte per SymBee bit:
//
//	preamble (4 bits) | ctrl (16 bits) | seq (8 bits) | data | CRC-16
//
// ctrl packs a 4-bit version, 4 flag bits and the data length in bytes,
// mirroring the paper's "2 bytes control information, 1 byte data
// sequence and 2 bytes check sum" (§VIII).
const (
	// Version is the 4-bit SymBee frame version encoded in ctrl.
	Version = 0x5
	// HeaderBits counts ctrl+seq bits.
	HeaderBits = 16 + 8
	// CRCBits counts the trailing checksum bits.
	CRCBits = 16
	// MaxPayloadBits is the number of SymBee bits that fit in one
	// maximal ZigBee packet: 127-byte PSDU minus the 2-byte FCS.
	MaxPayloadBits = zigbee.MaxPSDULen - zigbee.FCSLen
	// MaxDataBytes is the largest Frame.Data that fits:
	// (125 − 4 − 24 − 16)/8 = 10 bytes.
	MaxDataBytes = (MaxPayloadBits - PreambleBits - HeaderBits - CRCBits) / 8
	// MaxDataBytesMAC is the largest Frame.Data when the packet carries
	// full IEEE 802.15.4 MAC framing (9-byte header): 9 bytes.
	//symbee:ignore reach -- EXPERIMENTS.md extension 5 (MAC framing) and its tests size frames with it
	MaxDataBytesMAC = (zigbee.MaxMSDULen - PreambleBits - HeaderBits - CRCBits) / 8
)

// Encoding errors (ErrDataTooLong, ErrBadBit) are defined in errors.go.

// Frame is one SymBee message.
type Frame struct {
	// Seq is the sender's sequence number.
	Seq byte
	// Flags carries 4 user-defined bits (e.g. channel-coordination
	// message types).
	Flags byte
	// Data is the message body, at most MaxDataBytes bytes.
	Data []byte
}

// BitToByte converts one SymBee bit to its payload codeword byte.
func BitToByte(bit byte) (byte, error) {
	switch bit {
	case 0:
		return Bit0Byte, nil
	case 1:
		return Bit1Byte, nil
	}
	return 0, fmt.Errorf("%w: %d", ErrBadBit, bit)
}

// ByteToBit converts a received payload byte back to a SymBee bit; ok is
// false for bytes that are not SymBee codewords. This is the entire
// ZigBee-side receiver of a cross-technology broadcast (§VI-A).
func ByteToBit(b byte) (bit byte, ok bool) {
	switch b {
	case Bit0Byte:
		return 0, true
	case Bit1Byte:
		return 1, true
	}
	return 0, false
}

// EncodeBits maps a raw bit string (one bit per byte, values 0/1) to
// ZigBee payload bytes with the SymBee preamble prepended. This is the
// "raw mode" the paper's throughput experiments use (repeated '01'
// patterns without framing).
func EncodeBits(bits []byte) ([]byte, error) {
	if PreambleBits+len(bits) > MaxPayloadBits {
		return nil, fmt.Errorf("%w: %d bits > %d", ErrDataTooLong, len(bits), MaxPayloadBits-PreambleBits)
	}
	payload := make([]byte, 0, PreambleBits+len(bits))
	for i := 0; i < PreambleBits; i++ {
		payload = append(payload, Bit0Byte)
	}
	for _, bit := range bits {
		b, err := BitToByte(bit)
		if err != nil {
			return nil, err
		}
		payload = append(payload, b)
	}
	return payload, nil
}

// FrameBits serializes a frame to its bit string (without preamble).
func (f *Frame) FrameBits() ([]byte, error) {
	if len(f.Data) > MaxDataBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrDataTooLong, len(f.Data))
	}
	ctrl0 := Version<<4 | f.Flags&0x0F
	ctrl1 := byte(len(f.Data))
	protected := make([]byte, 0, 3+len(f.Data))
	protected = append(protected, ctrl0, ctrl1, f.Seq)
	protected = append(protected, f.Data...)
	crc := zigbee.CRC16(protected)
	buf := append(protected, byte(crc>>8), byte(crc&0xFF))
	return coding.BytesToBits(buf), nil
}

// EncodeFrame serializes a frame to ZigBee payload bytes, preamble
// included: the byte slice to place in a ZigBee packet payload.
func EncodeFrame(f *Frame) ([]byte, error) {
	bits, err := f.FrameBits()
	if err != nil {
		return nil, err
	}
	return EncodeBits(bits)
}

// ParseFrameBits reconstructs a Frame from decoded bits (preamble
// excluded). It is the inverse of FrameBits and is shared by the WiFi
// phase decoder, the ZigBee broadcast receiver and the reliability
// layer's Hamming-coded frame path (internal/reliable).
func ParseFrameBits(bits []byte) (*Frame, error) {
	if len(bits) < HeaderBits+CRCBits {
		return nil, fmt.Errorf("%w: %d bits", ErrTruncated, len(bits))
	}
	header, err := coding.BitsToBytes(bits[:HeaderBits])
	if err != nil {
		return nil, err
	}
	if header[0]>>4 != Version {
		return nil, fmt.Errorf("%w: 0x%X", ErrBadVersion, header[0]>>4)
	}
	dataLen := int(header[1])
	total := HeaderBits + dataLen*8 + CRCBits
	if dataLen > MaxDataBytes || len(bits) < total {
		return nil, fmt.Errorf("%w: need %d bits, have %d", ErrTruncated, total, len(bits))
	}
	body, err := coding.BitsToBytes(bits[:total])
	if err != nil {
		return nil, err
	}
	protected := body[:3+dataLen]
	gotCRC := uint16(body[3+dataLen])<<8 | uint16(body[3+dataLen+1])
	if zigbee.CRC16(protected) != gotCRC {
		return nil, ErrCRC
	}
	return &Frame{
		Seq:   header[2],
		Flags: header[0] & 0x0F,
		Data:  append([]byte{}, protected[3:]...),
	}, nil
}

// DecodeBroadcastPayload is the ZigBee-side receiver of a
// cross-technology broadcast: given the payload bytes of a received
// ZigBee packet, it locates the SymBee preamble (four 0x67 bytes),
// converts the following codeword bytes to bits and parses the frame.
// It runs entirely at the application layer, as §VI-A prescribes.
func DecodeBroadcastPayload(payload []byte) (*Frame, error) {
	start := -1
	for i := 0; i+PreambleBits <= len(payload); i++ {
		match := true
		for j := 0; j < PreambleBits; j++ {
			if payload[i+j] != Bit0Byte {
				match = false
				break
			}
		}
		if match {
			start = i + PreambleBits
			break
		}
	}
	if start < 0 {
		return nil, ErrNoPreamble
	}
	bits := make([]byte, 0, len(payload)-start)
	for _, b := range payload[start:] {
		bit, ok := ByteToBit(b)
		if !ok {
			break // first non-codeword byte ends the SymBee message
		}
		bits = append(bits, bit)
	}
	return ParseFrameBits(bits)
}
