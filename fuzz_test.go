package symbee

import (
	"math"
	"sort"
	"testing"

	"symbee/internal/core"
)

// fuzzSpecials are the sample components a poisoning op can write.
var fuzzSpecials = [8]float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1e308, -1e308, 0.5,
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
		iq := append([]complex128(nil), sig...)
		var cuts, empty []int
		for i := 0; i+3 <= len(ops); i += 3 {
			pos := (int(ops[i])<<8 | int(ops[i+1])) * len(iq) >> 16
			code := ops[i+2]
			v := fuzzSpecials[code&7]
			switch (code >> 3) & 3 {
			case 0:
				iq[pos] = complex(v, imag(iq[pos]))
			case 1:
				iq[pos] = complex(real(iq[pos]), v)
			case 2:
				iq[pos] = complex(v, v)
			}
			if code&0x20 != 0 {
				cuts = append(cuts, pos+1)
				if code&0x40 != 0 {
					empty = append(empty, pos+1)
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
