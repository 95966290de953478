package symbee

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"symbee/internal/core"
)

// fuzzSpecials are the sample components a poisoning op can write.
var fuzzSpecials = [8]float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1e308, -1e308, 0.5,
}

// poisonCapture returns a copy of sig poisoned by ops, read in triples
// [posHi posLo code]: the position scales onto the capture, code bits
// 0–2 pick a fuzzSpecials value and bits 3–4 the part it replaces
// (real, imaginary, both, none). It also returns each triple's
// position; the callers read the code's upper bits as chunking ops.
func poisonCapture(sig []complex128, ops []byte) (iq []complex128, pos []int) {
	iq = append([]complex128(nil), sig...)
	for i := 0; i+3 <= len(ops); i += 3 {
		at := (int(ops[i])<<8 | int(ops[i+1])) * len(iq) >> 16
		code := ops[i+2]
		v := fuzzSpecials[code&7]
		switch (code >> 3) & 3 {
		case 0:
			iq[at] = complex(v, imag(iq[at]))
		case 1:
			iq[at] = complex(real(iq[at]), v)
		case 2:
			iq[at] = complex(v, v)
		}
		pos = append(pos, at)
	}
	return iq, pos
}

// FuzzReceiverPushIQ feeds the public receiver a real frame capture
// poisoned with NaN, ±Inf, ±0 and near-overflow samples, cut into
// chunks at arbitrary points (empty chunks included), with and without
// CFO compensation. The receiver must never panic, and after Flush and
// Drain it must retain no more history than the streaming bound.
//
// ops is read in triples [posHi posLo code]: the position scales onto
// the capture, code bits 0–2 pick the value, bits 3–4 pick the part it
// replaces (real, imaginary, both, none), bit 5 cuts a chunk after the
// sample and bit 6 pushes an empty chunk at that cut.
func FuzzReceiverPushIQ(f *testing.F) {
	p := Params20()
	tx, err := NewLink(p, 0)
	if err != nil {
		f.Fatal(err)
	}
	sig, err := tx.TransmitFrame(&Frame{Seq: 5, Data: []byte("fuzz rx")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{}, false)
	f.Add([]byte{0x00, 0x00, 0x20, 0x80, 0x00, 0x60}, true) // clean frame, two cuts
	f.Add([]byte{0x10, 0x00, 0x10, 0x40, 0x00, 0x31, 0x90, 0x00, 0x35}, false)
	f.Add([]byte{0x00, 0x10, 0x12, 0x00, 0x11, 0x1d, 0xff, 0xff, 0x76}, true)

	// Streaming retention of the frame machine while hunting (see
	// core.defaultRetention).
	bound := (core.PreambleBits+20)*p.BitPeriod + 2*p.StableLen

	f.Fuzz(func(t *testing.T, ops []byte, compensate bool) {
		if len(ops) > 3*256 {
			return
		}
		iq, pos := poisonCapture(sig, ops)
		var cuts, empty []int
		for k, at := range pos {
			if code := ops[3*k+2]; code&0x20 != 0 {
				cuts = append(cuts, at+1)
				if code&0x40 != 0 {
					empty = append(empty, at+1)
				}
			}
		}
		sort.Ints(cuts)
		sort.Ints(empty)

		comp := 0.0
		if compensate {
			comp = CanonicalCompensation
		}
		rx, err := NewReceiver(p, WithCompensation(comp))
		if err != nil {
			t.Fatal(err)
		}
		push := func(chunk []complex128) {
			if err := rx.PushIQ(chunk); err != nil {
				t.Fatalf("PushIQ(%d samples): %v", len(chunk), err)
			}
			rx.Drain()
		}
		prev := 0
		for _, c := range append(cuts, len(iq)) {
			push(iq[prev:c])
			for len(empty) > 0 && empty[0] == c {
				push(nil)
				empty = empty[1:]
			}
			prev = c
		}
		if err := rx.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		rx.Drain()
		if got := rx.Buffered(); got > bound {
			t.Fatalf("retained %d phases after flush, bound %d", got, bound)
		}
	})
}

// FuzzPoolIngest feeds 1–4 streams of the poisoned frame capture, cut
// at fuzzed points and interleaved across streams, into a pool of 1–3
// workers, and flushes some streams mid-way with Chunk{Flush: true}.
// Each stream's events, collected from WithEvents, must equal the
// events of that stream's own NewReceiver fed the same chunks, Reset
// after each flush as the pool opens a fresh session there.
//
// shape bits 0–1 pick the stream count, bits 2–3 the worker count (mod
// 3) and bit 4 CFO compensation. ops poisons the one capture every
// stream carries (see poisonCapture); each triple targets stream posLo
// mod the stream count, code bit 5 cuts that stream's capture after the
// sample, bit 6 flushes the stream at the cut and bit 7 ingests an
// empty chunk there. The ingest order takes, at step j, the next chunk
// of stream ops[j mod len(ops)] mod the stream count, or of the next
// stream round-robin that still has one.
func FuzzPoolIngest(f *testing.F) {
	p := Params20()
	tx, err := NewLink(p, 0)
	if err != nil {
		f.Fatal(err)
	}
	sig, err := tx.TransmitFrame(&Frame{Seq: 6, Data: []byte("fuzz pool")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{}, byte(0x00))                                                     // one clean stream, one worker
	f.Add([]byte{0x40, 0x00, 0x20, 0x80, 0x01, 0x60, 0xc0, 0x02, 0xa0}, byte(0x0a)) // three streams, three workers, a mid-way flush
	f.Add([]byte{0x00, 0x10, 0x12, 0x00, 0x11, 0x3d, 0xff, 0xff, 0x76, 0x70, 0x03, 0x68}, byte(0x17))
	f.Add([]byte{0x10, 0x00, 0x30, 0x40, 0x01, 0x71, 0x90, 0x02, 0x35, 0x90, 0x03, 0xe0}, byte(0x07))

	f.Fuzz(func(t *testing.T, ops []byte, shape byte) {
		if len(ops) > 3*256 {
			return
		}
		streams := 1 + int(shape&3)
		workers := 1 + int(shape>>2&3)%3
		comp := 0.0
		if shape&0x10 != 0 {
			comp = CanonicalCompensation
		}
		iq, pos := poisonCapture(sig, ops)

		// Each stream's chunks, in its own order.
		type cut struct {
			at           int
			flush, empty bool
		}
		cuts := make([][]cut, streams)
		for k, at := range pos {
			s, code := int(ops[3*k+1])%streams, ops[3*k+2]
			if code&0x20 != 0 {
				cuts[s] = append(cuts[s], cut{at: at + 1, flush: code&0x40 != 0, empty: code&0x80 != 0})
			}
		}
		chunks := make([][]Chunk, streams)
		for s := range chunks {
			sort.SliceStable(cuts[s], func(i, j int) bool { return cuts[s][i].at < cuts[s][j].at })
			prev := 0
			for _, c := range cuts[s] {
				chunks[s] = append(chunks[s], Chunk{Stream: uint64(s), IQ: iq[prev:c.at]})
				if c.empty {
					chunks[s] = append(chunks[s], Chunk{Stream: uint64(s)})
				}
				if c.flush {
					chunks[s] = append(chunks[s], Chunk{Stream: uint64(s), Flush: true})
				}
				prev = c.at
			}
			chunks[s] = append(chunks[s], Chunk{Stream: uint64(s), IQ: iq[prev:]})
		}

		var mu sync.Mutex
		got := make([][]Event, streams)
		pool, err := NewPool(WithParams(p), WithCompensation(comp), WithWorkers(workers),
			WithEvents(func(ev Event) {
				mu.Lock()
				defer mu.Unlock()
				got[ev.Stream] = append(got[ev.Stream], ev)
			}))
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		next := make([]int, streams)
		for j := 0; ; j++ {
			s := j % streams
			if len(ops) > 0 {
				s = int(ops[j%len(ops)]) % streams
			}
			for n := 0; n < streams && next[s] == len(chunks[s]); n++ {
				s = (s + 1) % streams
			}
			if next[s] == len(chunks[s]) {
				break
			}
			if !pool.Ingest(chunks[s][next[s]]) {
				t.Fatalf("stream %d chunk %d rejected by an open lossless pool", s, next[s])
			}
			next[s]++
		}
		pool.Close()

		for s := range chunks {
			rx, err := NewReceiver(p, WithCompensation(comp))
			if err != nil {
				t.Fatal(err)
			}
			var want []Event
			for _, c := range chunks[s] {
				if err := rx.PushIQ(c.IQ); err != nil {
					t.Fatalf("stream %d: PushIQ(%d samples): %v", s, len(c.IQ), err)
				}
				if c.Flush {
					_ = rx.Flush()
				}
				want = append(want, rx.Drain()...)
				if c.Flush {
					rx.Reset()
				}
			}
			// The last chunk is the capture's tail, so the session is
			// open when the pool closes and flushes it.
			_ = rx.Flush()
			want = append(want, rx.Drain()...)
			for i := range want {
				want[i].Stream = uint64(s)
			}
			if !reflect.DeepEqual(got[s], want) {
				i := 0
				for i < len(got[s]) && i < len(want) && reflect.DeepEqual(got[s][i], want[i]) {
					i++
				}
				t.Fatalf("stream %d (%d streams, %d workers): pool emitted %d events, its receiver %d; event %d is %s, want %s",
					s, streams, workers, len(got[s]), len(want), i, eventAt(got[s], i), eventAt(want, i))
			}
		}
	})
}

// eventAt formats evs[i], or "none" past the end.
func eventAt(evs []Event, i int) string {
	if i >= len(evs) {
		return "none"
	}
	return fmt.Sprintf("%+v", evs[i].StreamEvent)
}
