package zigbee

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MAC frame (MPDU) support, IEEE 802.15.4 §7.2. A real SymBee sender
// transmits standard MAC data frames whose *MSDU payload* carries the
// SymBee codeword bytes — the MAC header precedes the SymBee preamble
// on air, and the fold-based capture must (and does) skip past it just
// as it skips the PHY header.

// FrameType is the 3-bit MAC frame type.
type FrameType byte

// MAC frame types.
const (
	FrameBeacon FrameType = iota //symbee:ignore reach -- an 802.15.4 frame type ParseMPDU accepts; it names a value of the wire format
	FrameData
	FrameAck //symbee:ignore reach -- an 802.15.4 frame type ParseMPDU accepts; it names a value of the wire format
	FrameCommand
)

// Broadcast addresses.
const (
	// BroadcastPAN is the broadcast PAN identifier.
	BroadcastPAN = 0xFFFF
	// BroadcastAddr is the broadcast short address.
	BroadcastAddr = 0xFFFF
)

// MPDU is a MAC frame with 16-bit (short) addressing — the mode IoT
// deployments and the paper's TelosB firmware use.
type MPDU struct {
	// Type of the frame.
	Type FrameType
	// AckRequest asks the receiver for a MAC acknowledgement.
	AckRequest bool
	// Seq is the MAC sequence number.
	Seq byte
	// PANID of the destination (intra-PAN frames).
	PANID uint16
	// Dest and Src short addresses.
	Dest, Src uint16
	// Payload is the MSDU (for SymBee: the codeword bytes).
	Payload []byte
}

// MPDU framing errors.
var (
	ErrMPDUShort = errors.New("zigbee: MPDU too short")
	ErrMPDUType  = errors.New("zigbee: unsupported MPDU frame type")
)

// mpduOverhead is the header length with short intra-PAN addressing:
// FCF(2) + Seq(1) + PAN(2) + Dest(2) + Src(2).
const mpduOverhead = 9

// MaxMSDULen is the largest MAC payload that fits a PHY frame:
// 127 − header − FCS.
const MaxMSDULen = MaxPSDULen - mpduOverhead - FCSLen

// Marshal serializes the MPDU (header + payload, FCS excluded — the PHY
// layer appends it via BuildPPDU).
func (m *MPDU) Marshal() ([]byte, error) {
	if len(m.Payload) > MaxMSDULen {
		return nil, fmt.Errorf("%w: payload %d exceeds %d", ErrBadLength, len(m.Payload), MaxMSDULen)
	}
	if m.Type > FrameCommand {
		return nil, fmt.Errorf("%w: %d", ErrMPDUType, m.Type)
	}
	// Frame control field: type | ack-request | intra-PAN, with 16-bit
	// destination and source addressing modes.
	fcf := uint16(m.Type) & 0x7
	if m.AckRequest {
		fcf |= 1 << 5
	}
	fcf |= 1 << 6    // intra-PAN: one PAN id covers both addresses
	fcf |= 0x2 << 10 // dest addressing: short
	fcf |= 0x2 << 14 // src addressing: short
	out := make([]byte, mpduOverhead+len(m.Payload))
	binary.LittleEndian.PutUint16(out[0:], fcf)
	out[2] = m.Seq
	binary.LittleEndian.PutUint16(out[3:], m.PANID)
	binary.LittleEndian.PutUint16(out[5:], m.Dest)
	binary.LittleEndian.PutUint16(out[7:], m.Src)
	copy(out[mpduOverhead:], m.Payload)
	return out, nil
}

// ParseMPDU inverts Marshal.
func ParseMPDU(data []byte) (*MPDU, error) {
	if len(data) < mpduOverhead {
		return nil, ErrMPDUShort
	}
	fcf := binary.LittleEndian.Uint16(data[0:])
	m := &MPDU{
		Type:       FrameType(fcf & 0x7),
		AckRequest: fcf&(1<<5) != 0,
		Seq:        data[2],
		PANID:      binary.LittleEndian.Uint16(data[3:]),
		Dest:       binary.LittleEndian.Uint16(data[5:]),
		Src:        binary.LittleEndian.Uint16(data[7:]),
	}
	if m.Type > FrameCommand {
		return nil, fmt.Errorf("%w: %d", ErrMPDUType, m.Type)
	}
	if fcf>>10&0x3 != 0x2 || fcf>>14&0x3 != 0x2 {
		return nil, fmt.Errorf("zigbee: only short addressing is supported (fcf %04X)", fcf)
	}
	m.Payload = append([]byte{}, data[mpduOverhead:]...)
	return m, nil
}

// BuildDataPPDU wraps a SymBee (or any) payload in a broadcast MAC data
// frame and the PHY framing in one step.
func BuildDataPPDU(src uint16, seq byte, payload []byte) ([]byte, error) {
	mpdu := &MPDU{
		Type:    FrameData,
		Seq:     seq,
		PANID:   BroadcastPAN,
		Dest:    BroadcastAddr,
		Src:     src,
		Payload: payload,
	}
	raw, err := mpdu.Marshal()
	if err != nil {
		return nil, err
	}
	return BuildPPDU(raw)
}
