package dsp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

func randomIQ(n int, rng *rand.Rand) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestPhaseDiffStreamerMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := randomIQ(5000, rng)
	for _, lag := range []int{1, 16, 32} {
		want := PhaseDiffStream(x, lag)
		for _, chunk := range []int{1, 7, 16, 17, 4096, len(x)} {
			s, err := NewPhaseDiffStreamer(lag)
			if err != nil {
				t.Fatal(err)
			}
			var got []float64
			for off := 0; off < len(x); off += chunk {
				end := off + chunk
				if end > len(x) {
					end = len(x)
				}
				got = s.Process(x[off:end], got)
			}
			if len(got) != len(want) {
				t.Fatalf("lag %d chunk %d: %d phases, want %d", lag, chunk, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("lag %d chunk %d: phase[%d] = %v, want %v (must be bit-identical)",
						lag, chunk, i, got[i], want[i])
				}
			}
		}
	}
}

func TestPhaseDiffStreamerWarmup(t *testing.T) {
	s, err := NewPhaseDiffStreamer(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, ok := s.Push(complex(float64(i), 0)); ok {
			t.Fatalf("phase emitted during warm-up at sample %d", i)
		}
	}
	if _, ok := s.Push(1i); !ok {
		t.Fatal("no phase after warm-up")
	}
}

func TestPhaseDiffStreamerReset(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randomIQ(100, rng)
	s, err := NewPhaseDiffStreamer(16)
	if err != nil {
		t.Fatal(err)
	}
	first := s.Process(x, nil)
	s.Reset()
	second := s.Process(x, nil)
	if len(first) != len(second) {
		t.Fatalf("run lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("Reset did not restore initial state")
		}
	}
}

func TestPhaseDiffStreamerErrorsOnBadLag(t *testing.T) {
	if _, err := NewPhaseDiffStreamer(0); err == nil {
		t.Fatal("no error for lag 0")
	}
}

// phaseDiffReference is the per-sample phase loop, FastAtan2 of
// p = x[n]·conj(x[n+lag]) one sample at a time: the oracle both stream
// paths must match bit for bit.
func phaseDiffReference(x []complex128, lag int) []float64 {
	var out []float64
	for n := 0; n+lag < len(x); n++ {
		p := x[n] * complex(real(x[n+lag]), -imag(x[n+lag]))
		out = append(out, FastAtan2(imag(p), real(p)))
	}
	return out
}

// processCuts runs x through a fresh streamer in chunks of the given
// lengths (0 pushes an empty chunk) and then pushes whatever is left
// as one last chunk.
func processCuts(t testing.TB, x []complex128, lag int, cuts []int) []float64 {
	s, err := NewPhaseDiffStreamer(lag)
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	off := 0
	for _, c := range cuts {
		end := min(off+c, len(x))
		out = s.Process(x[off:end], out)
		off = end
	}
	return s.Process(x[off:], out)
}

// requireSamePhases fails unless got and want hold the same phases
// with identical bits.
func requireSamePhases(t testing.TB, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d phases, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: phase[%d] = %v [%#016x], reference %v [%#016x]",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestPhaseKernelMatchesScalar pins PhaseDiffStream and Process, at
// every chunking, to the per-sample reference bit for bit. The noise
// carries zeros, signed zeros, subnormals, near-overflow values, ±Inf
// and NaN at each of the four positions of a lane group, and the input
// lengths leave every tail length from 0 to 3.
func TestPhaseKernelMatchesScalar(t *testing.T) {
	negZero := math.Copysign(0, -1)
	specials := []complex128{
		0,
		complex(negZero, negZero),
		complex(0, negZero),
		complex(math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64),
		complex(-1e300, 1e300),
		complex(math.Inf(1), 0.5),
		complex(-0.5, math.Inf(-1)),
		complex(math.NaN(), 1),
	}
	const body = 8192
	rng := rand.New(rand.NewSource(24))
	x := randomIQ(body+32+3, rng)
	for i, v := range specials {
		for lane := 0; lane < 4; lane++ {
			x[64*(4*i+lane)+lane] = v
		}
	}
	for _, lag := range []int{1, 16, 32} {
		for tail := 0; tail < 4; tail++ {
			in := x[:body+lag+tail]
			want := phaseDiffReference(in, lag)
			requireSamePhases(t, "PhaseDiffStream", PhaseDiffStream(in, lag), want)
			for _, chunk := range []int{1, 3, 16, 17, 4095, 4096, len(in)} {
				cuts := make([]int, len(in)/chunk)
				for i := range cuts {
					cuts[i] = chunk
				}
				requireSamePhases(t, "Process", processCuts(t, in, lag, cuts), want)
			}
		}
	}
}

// encodeIQ lays samples out as FuzzPhaseStream reads them: 16 bytes
// each, real then imaginary part, little endian.
func encodeIQ(x []complex128) []byte {
	out := make([]byte, 16*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint64(out[16*i:], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(out[16*i+8:], math.Float64bits(imag(v)))
	}
	return out
}

// FuzzPhaseStream feeds the phase kernel arbitrary complex128 bit
// patterns — NaN payloads, ±Inf, ±0 and subnormals included — at every
// lag from 1 to 40, cut into arbitrary chunks. Nothing may panic;
// Process over the cuts, PhaseDiffStream over the whole input and the
// per-sample reference must agree bit for bit; every non-NaN phase must
// lie in [−π, π]; and WrapPhase of each phase shifted by the canonical
// +4π/5 must match the reference wrap.
//
// data holds 16 bytes per sample (see encodeIQ), lag picks 1+lag%40
// and each byte of cuts is the length of the next chunk.
func FuzzPhaseStream(f *testing.F) {
	rng := rand.New(rand.NewSource(26))
	noise := randomIQ(96, rng)
	f.Add([]byte{}, uint8(0), []byte{})
	f.Add(encodeIQ(noise), uint8(15), []byte{3, 0, 17, 1})
	noise[20], noise[37] = complex(math.NaN(), 0), complex(math.Inf(-1), 1e300)
	noise[41], noise[58] = complex(0, math.Copysign(0, -1)), complex(-1, math.SmallestNonzeroFloat64)
	f.Add(encodeIQ(noise), uint8(0), []byte{5, 4, 0, 64})
	f.Add(encodeIQ(noise), uint8(31), []byte{33, 33})
	f.Fuzz(func(t *testing.T, data []byte, lag uint8, cuts []byte) {
		k := 1 + int(lag)%40
		x := make([]complex128, len(data)/16)
		for i := range x {
			x[i] = complex(math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:])),
				math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:])))
		}
		chunks := make([]int, len(cuts))
		for i, c := range cuts {
			chunks[i] = int(c)
		}
		want := phaseDiffReference(x, k)
		requireSamePhases(t, "PhaseDiffStream", PhaseDiffStream(x, k), want)
		requireSamePhases(t, "Process", processCuts(t, x, k, chunks), want)
		for i, phi := range want {
			if math.IsNaN(phi) {
				continue
			}
			if phi < -math.Pi || phi > math.Pi {
				t.Fatalf("phase[%d] = %v outside [−π, π]", i, phi)
			}
			if got, ref := WrapPhase(phi+4*math.Pi/5), wrapPhaseReference(phi+4*math.Pi/5); !sameFloat(got, ref) {
				t.Fatalf("WrapPhase(phase[%d] + 4π/5) = %v, reference %v", i, got, ref)
			}
		}
	})
}

// benchPhaseSamples is the input length of the phase stream benchmarks:
// 2^16 samples of unit-power noise at the 20 Msps lag.
const benchPhaseSamples = 1 << 16

// BenchmarkPhaseDiffStream times the batch phase path the ARQ harness,
// the decoder template and wifi.FrontEnd take.
func BenchmarkPhaseDiffStream(b *testing.B) {
	x := randomIQ(benchPhaseSamples, rand.New(rand.NewSource(27)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPhases = PhaseDiffStream(x, 16)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)), "ns/sample")
}

// BenchmarkPhaseDiffStreamerProcess times the streaming phase path every
// link.NewStreaming stack runs, in 4096-sample chunks.
func BenchmarkPhaseDiffStreamerProcess(b *testing.B) {
	x := randomIQ(benchPhaseSamples, rand.New(rand.NewSource(27)))
	s, err := NewPhaseDiffStreamer(16)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float64, 0, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off < len(x); off += 4096 {
			out = s.Process(x[off:off+4096], out[:0])
		}
	}
	benchPhases = out
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)), "ns/sample")
}

// benchPhases keeps the benchmarks' results live.
var benchPhases []float64
