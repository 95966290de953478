package stream

import (
	"math"
	"math/rand"
	"testing"

	"symbee/internal/channel"
	"symbee/internal/core"
	"symbee/internal/link"
	"symbee/internal/wifi"
)

// newStack builds the streaming-preset stack a pool session runs.
func newStack(tb testing.TB, p core.Params, compensation float64, m *link.Metrics) *link.Stack {
	tb.Helper()
	d, err := core.NewDecoder(p, compensation)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := link.NewStreaming(d, 0, m)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

func benchCapture(b testing.TB, p core.Params) []complex128 {
	b.Helper()
	l, err := core.NewLink(p, wifi.CanonicalCompensation)
	if err != nil {
		b.Fatal(err)
	}
	sig, err := l.TransmitFrame(&core.Frame{Seq: 1, Data: []byte("benchload!")})
	if err != nil {
		b.Fatal(err)
	}
	m, err := channel.NewMedium(channel.Config{
		SampleRate: p.SampleRate,
		SNRdB:      10,
		FreqOffset: channel.DefaultFreqOffset,
		Pad:        4000,
	}, rand.New(rand.NewSource(41)))
	if err != nil {
		b.Fatal(err)
	}
	return m.Transmit(sig)
}

// BenchmarkStreamThroughput measures the single-stream ingest rate of
// the full IQ→phase→decode chain on one core, reporting samples/sec.
// The ISSUE target is ≥ 20e6 (real time at Params20).
func BenchmarkStreamThroughput(b *testing.B) {
	p := core.Params20()
	iq := benchCapture(b, p)
	r := newStack(b, p, wifi.CanonicalCompensation, nil)
	const chunk = 4096
	b.ReportAllocs()
	b.ResetTimer()
	samples := 0
	for i := 0; i < b.N; i++ {
		for off := 0; off < len(iq); off += chunk {
			end := off + chunk
			if end > len(iq) {
				end = len(iq)
			}
			r.PushIQ(iq[off:end])
			r.Drain()
		}
		samples += len(iq)
	}
	b.StopTimer()
	b.ReportMetric(float64(samples)/b.Elapsed().Seconds(), "samples/sec")
	b.ReportMetric(float64(samples)/b.Elapsed().Seconds()/p.SampleRate, "x-realtime")
}

// BenchmarkStreamThroughputNoise is the idle-listening floor: pure noise
// keeps the machine hunting the whole time, which is the steady-state
// cost a receiver pays between packets.
func BenchmarkStreamThroughputNoise(b *testing.B) {
	p := core.Params20()
	rng := rand.New(rand.NewSource(42))
	iq := make([]complex128, 1<<18)
	for i := range iq {
		iq[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	r := newStack(b, p, wifi.CanonicalCompensation, nil)
	const chunk = 4096
	b.ReportAllocs()
	b.ResetTimer()
	samples := 0
	for i := 0; i < b.N; i++ {
		for off := 0; off < len(iq); off += chunk {
			r.PushIQ(iq[off : off+chunk])
			r.Drain()
		}
		samples += len(iq)
	}
	b.StopTimer()
	b.ReportMetric(float64(samples)/b.Elapsed().Seconds(), "samples/sec")
}

// backToBackCorpus returns n samples of busy air: frames carrying 0 to
// MaxDataBytes random data bytes at 10–16 dB with the default carrier
// offset, separated by 0.75–1.5 ms gaps over a unit-power noise floor,
// the capture starting and ending on a gap. It also returns the number
// of frames it holds.
func backToBackCorpus(tb testing.TB, p core.Params, n int) ([]complex128, int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(43))
	phy, err := core.NewLink(p, 0)
	if err != nil {
		tb.Fatal(err)
	}
	iq := make([]complex128, n)
	for i := range iq {
		iq[i] = complex(rng.NormFloat64()*math.Sqrt2/2, rng.NormFloat64()*math.Sqrt2/2)
	}
	minGap, maxGap := int(0.75e-3*p.SampleRate), int(1.5e-3*p.SampleRate)
	gap := func() int { return minGap + rng.Intn(maxGap-minGap+1) }
	frames := 0
	for cur := gap(); ; {
		data := make([]byte, rng.Intn(core.MaxDataBytes+1))
		rng.Read(data)
		sig, err := phy.TransmitFrame(&core.Frame{Seq: byte(rng.Intn(256)), Data: data})
		if err != nil {
			tb.Fatal(err)
		}
		snr := 10 + 6*rng.Float64()
		next := gap()
		if cur+len(sig)+next > n {
			return iq, frames
		}
		channel.ApplyCFO(sig, channel.DefaultFreqOffset, p.SampleRate)
		var power float64
		for _, v := range sig {
			power += real(v)*real(v) + imag(v)*imag(v)
		}
		a := complex(math.Sqrt(math.Pow(10, snr/10)/(power/float64(len(sig)))), 0)
		for i, v := range sig {
			iq[cur+i] += a * v
		}
		frames++
		cur += len(sig) + next
	}
}

// BenchmarkStreamThroughputBackToBack is the busy-channel rate: frames
// back to back, so the stack spends its time locking, refining anchors,
// decoding and re-arming, on true frames and on false locks alike. Each
// pass replays the corpus and flushes, and must decode every frame.
func BenchmarkStreamThroughputBackToBack(b *testing.B) {
	p := core.Params20()
	iq, want := backToBackCorpus(b, p, 1<<20)
	r := newStack(b, p, wifi.CanonicalCompensation, nil)
	countFrames := func(events []link.Event) int {
		n := 0
		for _, ev := range events {
			if ev.Kind == core.EventFrame {
				n++
			}
		}
		return n
	}
	const chunk = 4096
	b.ReportAllocs()
	b.ResetTimer()
	samples, frames := 0, 0
	for i := 0; i < b.N; i++ {
		got := 0
		for off := 0; off < len(iq); off += chunk {
			if err := r.PushIQ(iq[off:min(off+chunk, len(iq))]); err != nil {
				b.Fatal(err)
			}
			got += countFrames(r.Drain())
		}
		if err := r.Flush(); err != nil {
			b.Fatal(err)
		}
		got += countFrames(r.Drain())
		r.Reset()
		if got != want {
			b.Fatalf("pass %d decoded %d frames, corpus holds %d", i, got, want)
		}
		samples += len(iq)
		frames += got
	}
	b.StopTimer()
	b.ReportMetric(float64(samples)/b.Elapsed().Seconds(), "samples/sec")
	b.ReportMetric(float64(samples)/b.Elapsed().Seconds()/p.SampleRate, "x-realtime")
	b.ReportMetric(float64(frames)/float64(b.N), "frames/pass")
}
