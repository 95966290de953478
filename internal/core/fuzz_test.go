package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"symbee/internal/wifi"
)

// fuzzPhases maps fuzz bytes onto a bounded phase stream: one phase per
// byte, spanning [-π, π], the range the phase front end and WrapPhase
// emit. The decoder takes any float64; FuzzHuntBatch reaches NaN, ±Inf
// and magnitudes far outside the range.
func fuzzPhases(data []byte) []float64 {
	phases := make([]float64, len(data))
	for i, b := range data {
		phases[i] = (float64(b)/255*2 - 1) * math.Pi
	}
	return phases
}

// quantize is the inverse direction for seeding the corpus with real
// captures.
func quantize(phases []float64) []byte {
	out := make([]byte, len(phases))
	for i, p := range phases {
		out[i] = byte((p/math.Pi + 1) / 2 * 255)
	}
	return out
}

// FuzzDecodeFrame drives arbitrary phase streams through the batch
// decoder and, independently, through a chunked FrameMachine. The
// decoder must never panic, any frame it accepts must re-encode, and
// the machine must reach the same verdict regardless of chunking.
func FuzzDecodeFrame(f *testing.F) {
	link, err := NewLink(Params20(), 0)
	if err != nil {
		f.Fatal(err)
	}
	sig, err := link.TransmitFrame(&Frame{Seq: 3, Flags: FlagMore, Data: []byte("fuzz seed!")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(quantize(link.Phases(sig)))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x00, 0xFF}, 2000)) // alternating extremes
	f.Add(bytes.Repeat([]byte{0xE6}, 8000))       // constant near +4π/5

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		phases := fuzzPhases(data)
		d, err := NewDecoder(Params20(), 0)
		if err != nil {
			t.Fatal(err)
		}
		frame, decErr := d.DecodeFrame(phases)
		if decErr == nil {
			if _, err := EncodeFrame(frame); err != nil {
				t.Fatalf("decoded frame does not re-encode: %v", err)
			}
		}

		// Chunk-size invariance: the same stream fed in uneven pieces
		// must produce the same first frame (or none).
		m := mustMachine(t, d)
		for off := 0; off < len(phases); {
			end := off + 1000 + off%777
			if end > len(phases) {
				end = len(phases)
			}
			m.PushChunk(phases[off:end])
			off = end
		}
		m.Flush()
		var streamed *Frame
		for _, ev := range m.Events() {
			if ev.Kind == EventFrame && streamed == nil {
				streamed = ev.Frame
			}
		}
		switch {
		case decErr == nil && streamed == nil:
			t.Fatalf("batch decoded seq=%d but chunked machine found nothing", frame.Seq)
		case decErr == nil && streamed != nil:
			if streamed.Seq != frame.Seq || streamed.Flags != frame.Flags ||
				!bytes.Equal(streamed.Data, frame.Data) {
				t.Fatalf("chunked %+v != batch %+v", streamed, frame)
			}
		}
	})
}

// FuzzReassemblerAdd feeds an arbitrary frame stream into a
// Reassembler: it must never panic and never emit more bytes than it
// was fed. The same input, fragmented legitimately, must round-trip.
func FuzzReassemblerAdd(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, FlagMore, 2, 'h', 'i', 1, 0, 1, '!'})
	f.Add(bytes.Repeat([]byte{7}, 300))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<15 {
			return
		}
		// Arbitrary frame stream: [seq flags dataLen data...]*
		var r Reassembler
		fed := 0
		for i := 0; i+3 <= len(data); {
			seq, flags := data[i], data[i+1]
			n := int(data[i+2]) % (MaxDataBytes + 1)
			i += 3
			if i+n > len(data) {
				n = len(data) - i
			}
			frame := &Frame{Seq: seq, Flags: flags & FlagMore, Data: data[i : i+n]}
			i += n
			fed += n
			msg, done, _ := r.Add(frame)
			if done && len(msg) > fed {
				t.Fatalf("reassembler emitted %d bytes from %d fed", len(msg), fed)
			}
		}

		// Conservation's other half: a legitimate fragmentation of the
		// same bytes reassembles exactly.
		if len(data) == 0 {
			return
		}
		frames, err := NewMessenger(nil).Fragment(data)
		if err != nil {
			t.Fatalf("Fragment: %v", err)
		}
		var fresh Reassembler
		for i, fr := range frames {
			msg, done, err := fresh.Add(fr)
			if err != nil {
				t.Fatalf("fragment %d: %v", i, err)
			}
			if last := i == len(frames)-1; done != last {
				t.Fatalf("fragment %d: done=%v", i, done)
			}
			if done && !bytes.Equal(msg, data) {
				t.Fatal("round trip lost bytes")
			}
		}
	})
}

// FuzzHuntBatch input words: each phase is two little-endian bytes.
// The top words are reserved, 0xFFFF−k for huntWordSpecial[k]: NaN,
// −0, ±Inf and magnitudes far outside [−π, π]. The rest map linearly
// onto [−π, π], ends included.
var huntWordSpecial = [...]float64{
	math.NaN(), math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1),
	1e3, -1e3, 1e300, -1e300,
}

const huntWordMax = 0xFFFF - len(huntWordSpecial) // maps to +π

// huntFuzzPhases maps fuzz bytes two at a time onto phases.
func huntFuzzPhases(data []byte) []float64 {
	phases := make([]float64, len(data)/2)
	for i := range phases {
		if w := int(binary.LittleEndian.Uint16(data[2*i:])); w > huntWordMax {
			phases[i] = huntWordSpecial[0xFFFF-w]
		} else {
			phases[i] = (float64(w)/float64(huntWordMax)*2 - 1) * math.Pi
		}
	}
	return phases
}

// huntFuzzInput is the inverse direction for seeding the corpus: the
// header byte, then each phase as its reserved word or, in [−π, π], its
// nearest word.
func huntFuzzInput(header byte, phases []float64) []byte {
	out := make([]byte, 1, 1+2*len(phases))
	out[0] = header
	for _, v := range phases {
		w := uint16(math.Round((v/math.Pi + 1) / 2 * float64(huntWordMax)))
		for k, sv := range huntWordSpecial {
			if math.Float64bits(v) == math.Float64bits(sv) || math.IsNaN(v) && math.IsNaN(sv) {
				w = uint16(0xFFFF - k)
				break
			}
		}
		out = binary.LittleEndian.AppendUint16(out, w)
	}
	return out
}

// FuzzHuntBatch drives arbitrary phase streams through the batched hunt
// kernel and the per-sample reference scanner. The header byte's low
// bit picks the decoder (compensation 0, where out-of-range words reach
// the scan unwrapped, or canonical) and the rest seeds the chunk cuts.
// Both paths must emit the same events, complete their scans at the
// same positions and leave the same scanner state, and CapturePreamble
// must match the reference capture loop.
func FuzzHuntBatch(f *testing.F) {
	p := Params20()
	rng := rand.New(rand.NewSource(9))
	l, err := NewLink(p, wifi.CanonicalCompensation)
	if err != nil {
		f.Fatal(err)
	}
	noise := make([]float64, 8000)
	for i := range noise {
		noise[i] = (2*rng.Float64() - 1) * math.Pi / 2
	}
	f.Add(huntFuzzInput(1, noise))
	clean := transmitPhases(f, l, rng, 20, 20, 300, 300, &Frame{Seq: 1})
	f.Add(huntFuzzInput(3, clean))
	// Tight back to back: the last 5,000 phases of one transmission
	// (its checksum tail, which can false-lock, and a 1,000–1,500
	// sample pad), then the next frame after a pad of the same range.
	first := transmitPhases(f, l, rng, 10, 16, 1000, 1500, &Frame{Seq: 2})
	second := transmitPhases(f, l, rng, 10, 16, 1000, 1500, &Frame{Seq: 3, Data: []byte("b")})
	f.Add(huntFuzzInput(5, append(first[len(first)-5000:], second...)))
	// The NaN ramp TestHuntGateNaNPhases pins, at compensation 0.
	ramp := make([]float64, 8000)
	for i := range ramp {
		ramp[i] = -math.Pi
	}
	for k := 0; k < PreambleBits; k++ {
		for i := 1003 + k*p.BitPeriod; i < 1003+k*p.BitPeriod+55; i++ {
			ramp[i] = math.Pi
		}
	}
	ramp[1003+49+3*p.BitPeriod] = math.NaN()
	f.Add(huntFuzzInput(0, ramp))
	// The out-of-range spike pair huntCaptures replays, at
	// compensation 0.
	spike := make([]float64, 20000)
	spike[4097], spike[4099] = 1e3, -1e3
	f.Add(huntFuzzInput(0, spike))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1<<17 {
			return
		}
		comp := 0.0
		if data[0]&1 != 0 {
			comp = wifi.CanonicalCompensation
		}
		d, err := NewDecoder(p, comp)
		if err != nil {
			t.Fatal(err)
		}
		phases := huntFuzzPhases(data[1:])
		cutRng := rand.New(rand.NewSource(int64(data[0] >> 1)))
		var cuts []int
		for total := 0; total < len(phases); {
			c := 1 + cutRng.Intn(4096)
			cuts = append(cuts, c)
			total += c
		}
		cut := func(k int) int { return cuts[k] }
		batch, scalar := replayHuntCuts(t, d, phases, cut)
		if !reflect.DeepEqual(batch.events, scalar.events) {
			t.Fatalf("events diverge\n batched: %+v\nscalar: %+v", batch.events, scalar.events)
		}
		if !reflect.DeepEqual(batch.state, scalar.state) {
			t.Fatalf("scanner state diverges\n batched: %+v\nscalar: %+v", batch.state, scalar.state)
		}
		if !reflect.DeepEqual(batch.done, scalar.done) {
			t.Fatalf("scan completions diverge\n batched: %+v\nscalar: %+v", batch.done, scalar.done)
		}
		want, wantErr := scalarCapturePreamble(d, phases)
		got, gotErr := d.CapturePreamble(phases)
		if got != want || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("CapturePreamble = %d, %v; scalar scan = %d, %v", got, gotErr, want, wantErr)
		}
	})
}
