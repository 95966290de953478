package stream

import (
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

// BenchmarkMeasureThroughput exercises the shared measurement helper so
// cmd/symbeebench's stream mode stays covered.
func BenchmarkMeasureThroughput(b *testing.B) {
	p := core.Params20()
	iq := benchCapture(b, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := MeasureThroughput(p, wifi.CanonicalCompensation, iq, 4096, uint64(len(iq)))
		if err != nil {
			b.Fatal(err)
		}
		if rep.Frames == 0 {
			b.Fatal("replay decoded no frames")
		}
	}
}
