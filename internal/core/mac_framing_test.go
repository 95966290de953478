package core

import (
	"bytes"
	"math/rand"
	"testing"

	"symbee/internal/channel"
	"symbee/internal/wifi"
	"symbee/internal/zigbee"
)

func TestMACFramedFrameDecodesAtWiFi(t *testing.T) {
	// With a full MAC header between the PHY header and the SymBee
	// preamble, the WiFi decoder must still anchor correctly.
	l := mustLink(t, Params20(), 0)
	if MaxDataBytesMAC != 9 {
		t.Fatalf("MaxDataBytesMAC = %d, want 9", MaxDataBytesMAC)
	}
	f := &Frame{Seq: 11, Flags: 0x1, Data: []byte("mac-frame")} // 9 bytes
	sig, err := l.TransmitFrameMAC(f, 0xBEEF, 42)
	if err != nil {
		t.Fatal(err)
	}
	got, err := l.ReceiveFrame(sig)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != f.Seq || !bytes.Equal(got.Data, f.Data) {
		t.Errorf("frame = %+v", got)
	}
}

func TestMACFramedFrameUnderNoiseAndCFO(t *testing.T) {
	p := Params20()
	l := mustLink(t, p, wifi.CanonicalCompensation)
	rng := rand.New(rand.NewSource(31))
	f := &Frame{Seq: 5, Data: []byte{0xDE, 0xAD}}
	sig, err := l.TransmitFrameMAC(f, 0x0042, 7)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	const trials = 12
	for i := 0; i < trials; i++ {
		m, err := channel.NewMedium(channel.Config{
			SampleRate: p.SampleRate,
			SNRdB:      4,
			FreqOffset: channel.DefaultFreqOffset,
			Pad:        600,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		got, err := l.ReceiveFrame(m.Transmit(sig))
		if err != nil {
			continue
		}
		if got.Seq != f.Seq || !bytes.Equal(got.Data, f.Data) {
			t.Fatalf("trial %d: silently wrong frame %+v", i, got)
		}
		delivered++
	}
	if delivered < trials-2 {
		t.Errorf("delivered %d/%d MAC-framed frames at 4 dB", delivered, trials)
	}
}

func TestMACFramedBroadcastReachesZigBeeToo(t *testing.T) {
	// Dual reception with real MAC framing: the ZigBee neighbour parses
	// PPDU → MPDU → SymBee payload.
	l := mustLink(t, Params20(), 0)
	f := &Frame{Seq: 2, Flags: 0x2, Data: []byte("RSV")}
	sig, err := l.TransmitFrameMAC(f, 0x0007, 3)
	if err != nil {
		t.Fatal(err)
	}
	demod, err := zigbee.NewDemodulator(20e6)
	if err != nil {
		t.Fatal(err)
	}
	msdu, err := demod.ReceiveAt(sig, 0)
	if err != nil {
		t.Fatal(err)
	}
	mpdu, err := zigbee.ParseMPDU(msdu)
	if err != nil {
		t.Fatal(err)
	}
	if mpdu.Src != 0x0007 || mpdu.Dest != zigbee.BroadcastAddr {
		t.Errorf("mpdu = %+v", mpdu)
	}
	got, err := DecodeBroadcastPayload(mpdu.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, f.Data) {
		t.Errorf("data = %q", got.Data)
	}
}
