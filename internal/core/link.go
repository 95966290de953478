package core

import (
	"fmt"

	"symbee/internal/dsp"
	"symbee/internal/wifi"
	"symbee/internal/zigbee"
)

// Link bundles the full SymBee pipeline: payload encoding, the ZigBee
// PHY transmitter, the WiFi idle-listening front-end and the phase
// decoder. A channel model (package channel) is applied by the caller
// between Transmit* and Receive*.
type Link struct {
	params  Params
	mod     *zigbee.Modulator
	fe      *wifi.FrontEnd
	decoder *Decoder
}

// NewLink builds a link at the given parameters. compensation is the
// CFO compensation the receiver applies (wifi.CanonicalCompensation when
// the channel model injects a real carrier offset, 0 otherwise).
func NewLink(p Params, compensation float64) (*Link, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	mod, err := zigbee.NewModulator(p.SampleRate)
	if err != nil {
		return nil, fmt.Errorf("core: link modulator: %w", err)
	}
	fe, err := wifi.NewFrontEnd(p.SampleRate)
	if err != nil {
		return nil, fmt.Errorf("core: link front-end: %w", err)
	}
	if fe.Lag() != p.Lag {
		return nil, fmt.Errorf("core: lag mismatch: front-end %d, params %d", fe.Lag(), p.Lag)
	}
	dec, err := NewDecoder(p, compensation)
	if err != nil {
		return nil, err
	}
	return &Link{params: p, mod: mod, fe: fe, decoder: dec}, nil
}

// Params returns the link's parameter set.
func (l *Link) Params() Params { return l.params }

// Decoder returns the link's phase decoder.
func (l *Link) Decoder() *Decoder { return l.decoder }

// Modulator returns the link's ZigBee modulator, the one
// PayloadToSignal shapes chips with.
func (l *Link) Modulator() *zigbee.Modulator { return l.mod }

// PayloadToSignal wraps SymBee payload bytes in a ZigBee PPDU and
// modulates it to complex baseband: Modulator().ModulateChips of
// PayloadToChips.
func (l *Link) PayloadToSignal(payload []byte) ([]complex128, error) {
	chips, err := l.PayloadToChips(payload)
	if err != nil {
		return nil, err
	}
	return l.mod.ModulateChips(chips), nil
}

// PayloadToChips wraps SymBee payload bytes in a ZigBee PPDU and
// spreads it into the chip stream PayloadToSignal modulates. When the
// resulting PHR length byte would itself be a SymBee codeword (PSDU
// length 0x67) the payload is padded by one byte: such a PHR is
// phase-indistinguishable from a preamble bit and would make the anchor
// ambiguous. The pad byte is not a codeword, so both the WiFi and
// ZigBee receivers ignore it.
func (l *Link) PayloadToChips(payload []byte) ([]byte, error) {
	if len(payload)+zigbee.FCSLen == int(Bit0Byte) {
		padded := make([]byte, len(payload)+1)
		copy(padded, payload)
		payload = padded
	}
	ppdu, err := zigbee.BuildPPDU(payload)
	if err != nil {
		return nil, err
	}
	return zigbee.SpreadSymbols(zigbee.BytesToSymbols(ppdu)), nil
}

// TransmitBits modulates a raw SymBee bit string (preamble prepended)
// into one ZigBee packet.
func (l *Link) TransmitBits(bits []byte) ([]complex128, error) {
	payload, err := EncodeBits(bits)
	if err != nil {
		return nil, err
	}
	return l.PayloadToSignal(payload)
}

// TransmitFrame modulates one SymBee frame into one ZigBee packet.
func (l *Link) TransmitFrame(f *Frame) ([]complex128, error) {
	payload, err := EncodeFrame(f)
	if err != nil {
		return nil, err
	}
	return l.PayloadToSignal(payload)
}

// TransmitFrameMAC is TransmitFrame with full IEEE 802.15.4 MAC framing:
// the SymBee codewords ride as the MSDU of a broadcast MAC data frame
// from the given short source address — exactly what a commodity node's
// normal send path produces. The WiFi-side decoder needs no change: the
// MAC header is just nine more non-codeword bytes for the preamble
// capture to skip.
func (l *Link) TransmitFrameMAC(f *Frame, src uint16, macSeq byte) ([]complex128, error) {
	payload, err := EncodeFrame(f)
	if err != nil {
		return nil, err
	}
	ppdu, err := zigbee.BuildDataPPDU(src, macSeq, payload)
	if err != nil {
		return nil, err
	}
	return l.mod.ModulateBytes(ppdu), nil
}

// Phases runs a received capture through the WiFi idle-listening block.
func (l *Link) Phases(capture []complex128) []float64 {
	return l.AppendPhases(nil, capture)
}

// AppendPhases appends Phases(capture) to dst and returns the extended
// slice, so a caller that passes its previous result back as dst[:0]
// extracts every capture into one reused buffer.
func (l *Link) AppendPhases(dst []float64, capture []complex128) []float64 {
	return dsp.AppendPhaseDiffStream(dst, capture, l.fe.Lag())
}

// ReceiveBits decodes n raw SymBee bits from a capture.
func (l *Link) ReceiveBits(capture []complex128, n int) ([]byte, error) {
	return l.decoder.DecodeBits(l.Phases(capture), n)
}

// ReceiveFrame decodes one SymBee frame from a capture.
func (l *Link) ReceiveFrame(capture []complex128) (*Frame, error) {
	return l.decoder.DecodeFrame(l.Phases(capture))
}
