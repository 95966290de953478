package core

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestBitByteMapping(t *testing.T) {
	if b, err := BitToByte(0); err != nil || b != 0x67 {
		t.Errorf("bit 0 → 0x%02X, %v", b, err)
	}
	if b, err := BitToByte(1); err != nil || b != 0xEF {
		t.Errorf("bit 1 → 0x%02X, %v", b, err)
	}
	if _, err := BitToByte(2); !errors.Is(err, ErrBadBit) {
		t.Errorf("bit 2: err = %v", err)
	}
	if bit, ok := ByteToBit(0x67); !ok || bit != 0 {
		t.Errorf("0x67 → %d,%v", bit, ok)
	}
	if bit, ok := ByteToBit(0xEF); !ok || bit != 1 {
		t.Errorf("0xEF → %d,%v", bit, ok)
	}
	if _, ok := ByteToBit(0x00); ok {
		t.Error("0x00 should not be a codeword")
	}
}

func TestEncodeBits(t *testing.T) {
	payload, err := EncodeBits([]byte{0, 1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0x67, 0x67, 0x67, 0x67, 0x67, 0xEF, 0xEF, 0x67}
	if !bytes.Equal(payload, want) {
		t.Errorf("payload = %X, want %X", payload, want)
	}
	if _, err := EncodeBits([]byte{2}); !errors.Is(err, ErrBadBit) {
		t.Errorf("err = %v", err)
	}
	if _, err := EncodeBits(make([]byte, MaxPayloadBits)); !errors.Is(err, ErrDataTooLong) {
		t.Errorf("err = %v", err)
	}
}

func TestMaxDataBytesBudget(t *testing.T) {
	// 125 payload byte slots: 4 preamble + 24 header + 16 CRC + 8·data.
	if MaxDataBytes != 10 {
		t.Errorf("MaxDataBytes = %d, want 10", MaxDataBytes)
	}
	f := &Frame{Seq: 1, Data: make([]byte, MaxDataBytes)}
	payload, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) > MaxPayloadBits {
		t.Errorf("payload %d bytes exceeds ZigBee budget %d", len(payload), MaxPayloadBits)
	}
	f.Data = make([]byte, MaxDataBytes+1)
	if _, err := EncodeFrame(f); !errors.Is(err, ErrDataTooLong) {
		t.Errorf("err = %v", err)
	}
}

func TestFrameBroadcastRoundTrip(t *testing.T) {
	f := func(seq, flags byte, data []byte) bool {
		if len(data) > MaxDataBytes {
			data = data[:MaxDataBytes]
		}
		frame := &Frame{Seq: seq, Flags: flags & 0x0F, Data: data}
		payload, err := EncodeFrame(frame)
		if err != nil {
			return false
		}
		got, err := DecodeBroadcastPayload(payload)
		if err != nil {
			return false
		}
		return got.Seq == frame.Seq &&
			got.Flags == frame.Flags &&
			bytes.Equal(got.Data, frame.Data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeBroadcastPayloadErrors(t *testing.T) {
	t.Run("no preamble", func(t *testing.T) {
		if _, err := DecodeBroadcastPayload([]byte{1, 2, 3, 4, 5}); !errors.Is(err, ErrNoPreamble) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("corrupted codeword truncates frame", func(t *testing.T) {
		frame := &Frame{Seq: 9, Data: []byte{0xAA}}
		payload, err := EncodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		payload[10] = 0x33 // not a codeword: message cut short
		if _, err := DecodeBroadcastPayload(payload); err == nil {
			t.Error("expected parse failure")
		}
	})
	t.Run("flipped bit fails checksum", func(t *testing.T) {
		frame := &Frame{Seq: 9, Data: []byte{0xAA, 0xBB}}
		payload, err := EncodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		// Flip one data codeword (0x67 ↔ 0xEF) after the header.
		idx := PreambleBits + HeaderBits + 3
		if payload[idx] == 0x67 {
			payload[idx] = 0xEF
		} else {
			payload[idx] = 0x67
		}
		if _, err := DecodeBroadcastPayload(payload); !errors.Is(err, ErrCRC) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("version mismatch", func(t *testing.T) {
		frame := &Frame{Seq: 1}
		payload, _ := EncodeFrame(frame)
		// First ctrl bit is the MSB of version 0x5 = 0101: flip bit 1
		// (index PreambleBits+1) from 1 to 0 → version 0x1.
		payload[PreambleBits+1] = 0x67
		if _, err := DecodeBroadcastPayload(payload); !errors.Is(err, ErrBadVersion) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		frame := &Frame{Seq: 1, Data: []byte{1, 2, 3}}
		payload, _ := EncodeFrame(frame)
		if _, err := DecodeBroadcastPayload(payload[:len(payload)-8]); !errors.Is(err, ErrTruncated) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestEncodeFrameStartsWithPreamble(t *testing.T) {
	payload, err := EncodeFrame(&Frame{Seq: 3, Data: []byte("hi")})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < PreambleBits; i++ {
		if payload[i] != Bit0Byte {
			t.Fatalf("payload[%d] = 0x%02X, want preamble byte 0x67", i, payload[i])
		}
	}
}
