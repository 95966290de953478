package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"

	"symbee/internal/channel"
	"symbee/internal/cli"
	"symbee/internal/core"
	"symbee/internal/stream"
	"symbee/internal/wifi"
)

// streamRegressionTolerance is how far either replay regime's realtime
// multiple may fall below the committed baseline before CI fails.
const streamRegressionTolerance = 0.20

// streamBenchArtifact is the schema of BENCH_stream.json: the two
// throughput regimes that bracket a live receiver — a frame-bearing
// replay and pure-noise hunting — plus the pass/fail verdict against
// the real-time target.
type streamBenchArtifact struct {
	Benchmark   string                  `json:"benchmark"`
	SampleRate  float64                 `json:"sample_rate"`
	TargetSps   float64                 `json:"target_sps"`
	FrameReplay stream.ThroughputReport `json:"frame_replay"`
	NoiseReplay stream.ThroughputReport `json:"noise_replay"`
	Realtime    bool                    `json:"realtime"`
}

// runStreamBench measures single-stream ingest throughput of the full
// IQ→phase→decode chain on one core and writes the JSON artifact. With
// a baseline path it additionally gates the run: the noise (idle
// hunting) path must hold real time outright, and neither regime may
// regress more than streamRegressionTolerance below the baseline.
func runStreamBench(seed int64, chunk int, minSamples uint64, outPath, baselinePath string) error {
	if chunk < 1 {
		return fmt.Errorf("-stream-chunk must be positive, got %d", chunk)
	}
	if minSamples == 0 {
		return fmt.Errorf("-stream-samples must be positive, got %d", minSamples)
	}
	p := core.Params20()
	rng := rand.New(rand.NewSource(seed))

	l, err := core.NewLink(p, wifi.CanonicalCompensation)
	if err != nil {
		return err
	}
	sig, err := l.TransmitFrame(&core.Frame{Seq: 1, Data: []byte("benchload!")})
	if err != nil {
		return err
	}
	m, err := channel.NewMedium(channel.Config{
		SampleRate: p.SampleRate,
		SNRdB:      10,
		FreqOffset: channel.DefaultFreqOffset,
		Pad:        4000,
	}, rng)
	if err != nil {
		return err
	}
	capture := m.Transmit(sig)

	noise := make([]complex128, 1<<18)
	for i := range noise {
		noise[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}

	fmt.Printf("stream throughput bench: chunk=%d, ≥%d samples per regime\n", chunk, minSamples)
	frameRep, err := stream.MeasureThroughput(p, wifi.CanonicalCompensation, capture, chunk, minSamples)
	if err != nil {
		return err
	}
	fmt.Printf("  frame replay: %.1f Msps (%.2fx real time), %d frames\n",
		frameRep.SamplesPerSec/1e6, frameRep.RealtimeX, frameRep.Frames)
	noiseRep, err := stream.MeasureThroughput(p, wifi.CanonicalCompensation, noise, chunk, minSamples)
	if err != nil {
		return err
	}
	fmt.Printf("  noise hunting: %.1f Msps (%.2fx real time)\n",
		noiseRep.SamplesPerSec/1e6, noiseRep.RealtimeX)

	art := streamBenchArtifact{
		Benchmark:   "stream-throughput",
		SampleRate:  p.SampleRate,
		TargetSps:   p.SampleRate,
		FrameReplay: frameRep,
		NoiseReplay: noiseRep,
		Realtime:    frameRep.SamplesPerSec >= p.SampleRate,
	}
	fmt.Printf("  real-time at %.0f Msps: %v\n", p.SampleRate/1e6, art.Realtime)
	if wrote, err := cli.WriteJSON(outPath, art); err != nil {
		return err
	} else if wrote {
		fmt.Printf("  wrote %s\n", outPath)
	}
	if baselinePath != "" {
		return checkStreamBaseline(art, baselinePath)
	}
	return nil
}

// checkStreamBaseline gates a stream bench run against the committed
// artifact: the noise path — the state a deployed idle listener is in
// almost all the time — must hold ≥1× real time on its own, and
// neither regime's realtime multiple may fall more than
// streamRegressionTolerance below the baseline's.
func checkStreamBaseline(art streamBenchArtifact, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("stream baseline: %w", err)
	}
	var base streamBenchArtifact
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("stream baseline %s: %w", path, err)
	}
	fmt.Printf("  baseline gate: frame %.2fx (baseline %.2fx), noise %.2fx (baseline %.2fx)\n",
		art.FrameReplay.RealtimeX, base.FrameReplay.RealtimeX,
		art.NoiseReplay.RealtimeX, base.NoiseReplay.RealtimeX)
	if art.NoiseReplay.RealtimeX < 1.0 {
		return fmt.Errorf("stream regression: noise hunting at %.2fx real time, the idle-listening path must hold ≥1.0x",
			art.NoiseReplay.RealtimeX)
	}
	pct := int(streamRegressionTolerance * 100)
	if floor := base.FrameReplay.RealtimeX * (1 - streamRegressionTolerance); art.FrameReplay.RealtimeX < floor {
		return fmt.Errorf("stream regression: frame replay %.2fx fell >%d%% below baseline %.2fx",
			art.FrameReplay.RealtimeX, pct, base.FrameReplay.RealtimeX)
	}
	if floor := base.NoiseReplay.RealtimeX * (1 - streamRegressionTolerance); art.NoiseReplay.RealtimeX < floor {
		return fmt.Errorf("stream regression: noise hunting %.2fx fell >%d%% below baseline %.2fx",
			art.NoiseReplay.RealtimeX, pct, base.NoiseReplay.RealtimeX)
	}
	return nil
}
