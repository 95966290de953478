package reliable

import (
	"math"
	"runtime"
	"testing"
	"time"

	"symbee/internal/channel"
	"symbee/internal/core"
)

// plainSends drives a SimLink under ProfileSoak(1) with one plain
// 10-byte frame, sent back to back the way a session sends: each send
// starts where the previous one's airtime ends, and the acks due by
// then are drained. The ideal downlink never destroys a forward frame,
// so every send the fault profile lets through runs the whole PHY.
// After the first delivery the receiver drops every copy as a
// duplicate, so the link's state stays bounded however many sends run.
type plainSends struct {
	l   *SimLink
	f   core.Frame
	now time.Duration
}

func newPlainSends(tb testing.TB) *plainSends {
	tb.Helper()
	cfg := DefaultSimConfig()
	cfg.Faults = ProfileSoak(1)
	cfg.Downlink = DownlinkIdeal
	l, err := NewSimLink(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return &plainSends{l: l, f: core.Frame{Data: testMessage(10)}}
}

func (p *plainSends) send(tb testing.TB) {
	at, err := p.l.Send(p.now, &p.f, false)
	if err != nil {
		tb.Fatal(err)
	}
	p.now += at
	p.l.Acks(p.now)
}

// BenchmarkSimLinkSend measures one warm plain 10-byte Send under
// ProfileSoak(1): encode, modulate into the held waveform, faults,
// phases into the held buffer, the uplink decode and the ack.
func BenchmarkSimLinkSend(b *testing.B) {
	p := newPlainSends(b)
	for i := 0; i < 8; i++ {
		p.send(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.send(b)
	}
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestSimLinkSendHeap pins the held buffers. A warm plain Send renders
// into the link's waveform and phase buffers, so it allocates only the
// small frame encodings and the decoded frame, not one frame's 1.35 MB
// waveform and 0.68 MB of phases. NewSimLink allocates neither buffer:
// they grow on the first Send, and the benchmark's arq_soak setup time
// covers NewSimLink. Not parallel: TotalAlloc counts the whole process.
func TestSimLinkSendHeap(t *testing.T) {
	const (
		maxBuild   = 128 << 10
		maxPerSend = 64 << 10
		warm, runs = 8, 64
	)
	cfg := DefaultSimConfig()
	cfg.Faults = ProfileSoak(1)
	before := totalAlloc()
	l, err := NewSimLink(cfg)
	built := totalAlloc() - before
	if built >= maxBuild {
		t.Errorf("NewSimLink allocated %d bytes, want under %d", built, maxBuild)
	}
	if err != nil {
		t.Fatal(err)
	}
	l.Close()

	p := newPlainSends(t)
	for i := 0; i < warm; i++ {
		p.send(t)
	}
	before = totalAlloc()
	for i := 0; i < runs; i++ {
		p.send(t)
	}
	per := (totalAlloc() - before) / runs
	t.Logf("NewSimLink allocated %d bytes, a warm plain Send %d", built, per)
	if per >= maxPerSend {
		t.Errorf("a warm plain Send allocated %d bytes, want under %d", per, maxPerSend)
	}
}

// TestSimLinkHeldBuffersMatchAllocatingPath runs one SimLink in
// lockstep with the allocating reference path: PayloadToSignal, a
// second FaultInjector on the same harsh profile, then Phases. After
// every frame that reaches the receiver, the link's held capture and
// phases must equal the reference's bit for bit. Plain 10-byte and
// coded 3-byte frames alternate, so a frame is often shorter than the
// one before it: handing the injector more than the frame's samples
// would change a burst's jam power and the capture with it. The ideal
// downlink never destroys a forward frame, so both injectors see every
// frame.
func TestSimLinkHeldBuffersMatchAllocatingPath(t *testing.T) {
	const seed, frames = 3, 200
	cfg := DefaultSimConfig()
	cfg.Faults = profileHarsh(seed)
	cfg.Downlink = DownlinkIdeal
	l, err := NewSimLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewLink(cfg.Params, 0)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := channel.NewFaultInjector(cfg.Faults)
	if err != nil {
		t.Fatal(err)
	}
	var now time.Duration
	reached, jammedShort := 0, 0
	for i := 0; i < frames; i++ {
		coded := i%2 == 1
		f := &core.Frame{Seq: byte(i), Data: testMessage(10)}
		encode := core.EncodeFrame
		if coded {
			f.Data = f.Data[:MaxCodedDataBytes]
			encode = EncodeCodedFrame
		}
		at, err := l.Send(now, f, coded)
		if err != nil {
			t.Fatal(err)
		}
		now += at
		l.Acks(now)

		payload, err := encode(f)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := ref.PayloadToSignal(payload)
		if err != nil {
			t.Fatal(err)
		}
		_, jammed, _ := inj.Stats()
		capture, ok := inj.Apply(sig)
		if !ok {
			continue
		}
		reached++
		if _, j, _ := inj.Stats(); j > jammed && len(capture) < cap(l.wave) {
			jammedShort++
		}
		if !sameComplexBits(l.wave, capture) {
			t.Fatalf("frame %d (coded %v): held capture differs from PayloadToSignal + Apply", i, coded)
		}
		if !sameFloatBits(l.phases, ref.Phases(capture)) {
			t.Fatalf("frame %d (coded %v): held phases differ from Phases", i, coded)
		}
	}
	lost, jammed, drifted := inj.Stats()
	t.Logf("%d of %d frames reached the receiver: %d lost, %d jammed (%d shorter than the held buffer), %d drifted",
		reached, frames, lost, jammed, jammedShort, drifted)
	if jammedShort == 0 || drifted == 0 {
		t.Fatalf("schedule exercised %d jammed short frames and %d drift ramps, want both", jammedShort, drifted)
	}
}

func sameComplexBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

func sameFloatBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
