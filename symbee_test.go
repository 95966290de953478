package symbee

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestPublicQuickstartPath(t *testing.T) {
	link, err := NewLink(Params20(), CanonicalCompensation)
	if err != nil {
		t.Fatal(err)
	}
	f := &Frame{Seq: 1, Flags: 0, Data: []byte("hi, wifi!")}
	sig, err := link.TransmitFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChannel(ChannelConfig{Scenario: "outdoor", Distance: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	capture, err := ch.Transmit(sig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := link.ReceiveFrame(capture)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != f.Seq || !bytes.Equal(got.Data, f.Data) {
		t.Errorf("frame = %+v", got)
	}
}

func TestNewChannelValidation(t *testing.T) {
	if _, err := NewChannel(ChannelConfig{Scenario: "moonbase"}); err == nil {
		t.Error("expected error for unknown scenario")
	}
	ch, err := NewChannel(ChannelConfig{Scenario: "office"})
	if err != nil {
		t.Fatal(err)
	}
	if ch.cfg.SampleRate != 20e6 || ch.cfg.Distance != 5 {
		t.Errorf("defaults not applied: %+v", ch.cfg)
	}
}

// TestNewChannelRejectsNonFinite pins NewChannel's rejection of NaN and
// infinite fields, which would otherwise panic in the multipath model
// (SampleRate) or turn the capture NaN (Distance, TxPowerDBm).
func TestNewChannelRejectsNonFinite(t *testing.T) {
	for _, field := range []struct {
		name string
		set  func(*ChannelConfig, float64)
	}{
		{"Distance", func(c *ChannelConfig, v float64) { c.Distance = v }},
		{"TxPowerDBm", func(c *ChannelConfig, v float64) { c.TxPowerDBm = v }},
		{"SampleRate", func(c *ChannelConfig, v float64) { c.SampleRate = v }},
		{"SpeedMps", func(c *ChannelConfig, v float64) { c.SpeedMps = v }},
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := ChannelConfig{Scenario: "office", Distance: 10}
			field.set(&cfg, v)
			if _, err := NewChannel(cfg); err == nil {
				t.Errorf("%s = %v: NewChannel succeeded, want an error", field.name, v)
			}
		}
	}
}

func TestChannelDeterministicPerSeed(t *testing.T) {
	link, err := NewLink(Params20(), CanonicalCompensation)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := link.TransmitFrame(&Frame{Seq: 9, Data: []byte("abc")})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed int64) []complex128 {
		ch, err := NewChannel(ChannelConfig{Scenario: "office", Distance: 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		out, err := ch.Transmit(sig)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b, c := mk(5), mk(5), mk(6)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if !same {
		t.Error("same seed should reproduce the capture")
	}
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds should differ")
	}
}

func TestMessengerFragmentation(t *testing.T) {
	link, err := NewLink(Params20(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMessenger(link)

	if _, err := m.Fragment(nil); !errors.Is(err, ErrEmptyMessage) {
		t.Errorf("err = %v", err)
	}

	frames, err := m.Fragment(make([]byte, MaxDataBytes*2+3))
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 3 {
		t.Fatalf("fragments = %d, want 3", len(frames))
	}
	for i, f := range frames {
		if f.Seq != byte(i) {
			t.Errorf("fragment %d seq = %d", i, f.Seq)
		}
		wantMore := i < 2
		if (f.Flags&FlagMore != 0) != wantMore {
			t.Errorf("fragment %d more-flag = %v, want %v", i, f.Flags&FlagMore != 0, wantMore)
		}
	}
	if len(frames[2].Data) != 3 {
		t.Errorf("last fragment size = %d", len(frames[2].Data))
	}
	// Sequence numbers continue across messages.
	next, err := m.Fragment([]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	if next[0].Seq != 3 {
		t.Errorf("next seq = %d, want 3", next[0].Seq)
	}
}

func TestMessengerReassemblerRoundTrip(t *testing.T) {
	link, err := NewLink(Params20(), 0)
	if err != nil {
		t.Fatal(err)
	}
	f := func(msg []byte) bool {
		if len(msg) == 0 || len(msg) > 200 {
			return true
		}
		m := NewMessenger(link)
		frames, err := m.Fragment(msg)
		if err != nil {
			return false
		}
		var r Reassembler
		for i, fr := range frames {
			got, done, err := r.Add(fr)
			if err != nil {
				return false
			}
			if i < len(frames)-1 {
				if done {
					return false
				}
				continue
			}
			return done && bytes.Equal(got, msg)
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReassemblerGapAndDuplicate(t *testing.T) {
	link, err := NewLink(Params20(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMessenger(link)
	frames, err := m.Fragment(make([]byte, MaxDataBytes*3))
	if err != nil {
		t.Fatal(err)
	}
	var r Reassembler
	if _, _, err := r.Add(frames[0]); err != nil {
		t.Fatal(err)
	}
	// Duplicate of the current fragment is tolerated.
	if _, _, err := r.Add(frames[0]); err != nil {
		t.Fatalf("duplicate rejected: %v", err)
	}
	// Skipping fragment 1 is a gap.
	if _, _, err := r.Add(frames[2]); !errors.Is(err, ErrFragmentGap) {
		t.Fatalf("err = %v, want ErrFragmentGap", err)
	}
	// After the gap the reassembler accepts a fresh message.
	m2 := NewMessenger(link)
	fresh, err := m2.Fragment([]byte("ok"))
	if err != nil {
		t.Fatal(err)
	}
	msg, done, err := r.Add(fresh[0])
	if err != nil || !done || !bytes.Equal(msg, []byte("ok")) {
		t.Errorf("recovery failed: %v %v %v", msg, done, err)
	}
}

func TestMessengerSignalsEndToEnd(t *testing.T) {
	link, err := NewLink(Params20(), CanonicalCompensation)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("symbol-level cross-technology")
	m := NewMessenger(link)
	signals, err := m.Signals(msg)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChannel(ChannelConfig{Scenario: "classroom", Distance: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var r Reassembler
	for _, sig := range signals {
		capture, err := ch.Transmit(sig)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := link.ReceiveFrame(capture)
		if err != nil {
			t.Fatal(err)
		}
		got, done, err := r.Add(frame)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			if !bytes.Equal(got, msg) {
				t.Errorf("message = %q, want %q", got, msg)
			}
			return
		}
	}
	t.Error("message never completed")
}

func TestBroadcastPublicAPI(t *testing.T) {
	payload, err := EncodeFrame(&Frame{Seq: 2, Data: []byte("bc")})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBroadcastPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, []byte("bc")) {
		t.Errorf("data = %q", got.Data)
	}
}

func TestParamsConstants(t *testing.T) {
	if Params20().RawBitRate() != RawBitRate {
		t.Errorf("RawBitRate mismatch")
	}
	if Bit0Byte != 0x67 || Bit1Byte != 0xEF {
		t.Error("codeword constants wrong")
	}
}
