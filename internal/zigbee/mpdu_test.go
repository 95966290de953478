package zigbee

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestMPDURoundTrip(t *testing.T) {
	f := func(seq byte, pan, dst, src uint16, ack bool, payload []byte) bool {
		if len(payload) > MaxMSDULen {
			payload = payload[:MaxMSDULen]
		}
		m := &MPDU{
			Type: FrameData, AckRequest: ack, Seq: seq,
			PANID: pan, Dest: dst, Src: src, Payload: payload,
		}
		raw, err := m.Marshal()
		if err != nil {
			return false
		}
		got, err := ParseMPDU(raw)
		if err != nil {
			return false
		}
		return got.Type == FrameData && got.AckRequest == ack && got.Seq == seq &&
			got.PANID == pan && got.Dest == dst && got.Src == src &&
			bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMPDUErrors(t *testing.T) {
	if _, err := (&MPDU{Type: FrameData, Payload: make([]byte, MaxMSDULen+1)}).Marshal(); !errors.Is(err, ErrBadLength) {
		t.Errorf("oversized payload: err = %v", err)
	}
	if _, err := (&MPDU{Type: 7}).Marshal(); !errors.Is(err, ErrMPDUType) {
		t.Errorf("bad type: err = %v", err)
	}
	if _, err := ParseMPDU(make([]byte, 5)); !errors.Is(err, ErrMPDUShort) {
		t.Errorf("short: err = %v", err)
	}
	// Long addressing mode rejected.
	m := &MPDU{Type: FrameData, Payload: []byte{1}}
	raw, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	raw[1] &^= 0x0C // clear dest addressing bits
	if _, err := ParseMPDU(raw); err == nil {
		t.Error("expected addressing-mode error")
	}
}

func TestMaxMSDULen(t *testing.T) {
	// 127 − 9 header − 2 FCS = 116 SymBee bit slots in a real MAC frame.
	if MaxMSDULen != 116 {
		t.Errorf("MaxMSDULen = %d, want 116", MaxMSDULen)
	}
}

func TestBuildDataPPDUThroughPHY(t *testing.T) {
	// A full stack round trip: MAC frame → PPDU → OQPSK air → PHY
	// receive → MAC parse.
	payload := []byte{0x67, 0x67, 0x67, 0x67, 0xEF, 0x67}
	ppdu, err := BuildDataPPDU(0x1234, 9, payload)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := NewModulator(20e6)
	if err != nil {
		t.Fatal(err)
	}
	demod, err := NewDemodulator(20e6)
	if err != nil {
		t.Fatal(err)
	}
	sig := mod.ModulateBytes(ppdu)
	msdu, err := demod.ReceiveAt(sig, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ParseMPDU(msdu)
	if err != nil {
		t.Fatal(err)
	}
	if m.Src != 0x1234 || m.Seq != 9 || m.Dest != BroadcastAddr {
		t.Errorf("mpdu = %+v", m)
	}
	if !bytes.Equal(m.Payload, payload) {
		t.Errorf("payload = %X", m.Payload)
	}
}

func TestMACFramedSymBeeStillDecodesAtWiFi(t *testing.T) {
	// The crucial interaction: with a 9-byte MAC header between the PHY
	// header and the SymBee preamble, the WiFi-side capture must still
	// find the right anchor (the header is just more non-codeword bytes
	// to skip). Exercised via the core link in core's tests; here we
	// verify at the PHY level that a MAC-framed payload preserves the
	// codeword phase structure at the right offsets.
	payload := make([]byte, 20)
	for i := range payload {
		payload[i] = 0x67
	}
	ppdu, err := BuildDataPPDU(0x0001, 1, payload)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := NewModulator(20e6)
	if err != nil {
		t.Fatal(err)
	}
	sig := mod.ModulateBytes(ppdu)
	// Codeword k sits at byte (6 PHY header + 9 MAC header + k).
	// Check the stable run of codeword 0 at its expected offset.
	base := (6 + 9) * 640
	var neg, nonneg int
	phases := phaseStream(sig, 16)
	for i := base + 270; i < base+350; i++ {
		if phases[i] >= 0 {
			nonneg++
		} else {
			neg++
		}
	}
	if nonneg < 75 {
		t.Errorf("stable run not found at MAC-framed offset: %d/80 nonneg", nonneg)
	}
}

// phaseStream is a tiny local helper mirroring the WiFi idle-listening
// computation, keeping this package's tests free of higher-layer
// imports.
func phaseStream(x []complex128, lag int) []float64 {
	out := make([]float64, len(x)-lag)
	for n := range out {
		p := x[n] * complex(real(x[n+lag]), -imag(x[n+lag]))
		out[n] = math.Atan2(imag(p), real(p))
	}
	return out
}
