package medium

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// discardSink consumes the capture without a receiver: schedule,
// collision and memory accounting are exercised; nothing decodes.
type discardSink struct {
	chunks  int
	samples int
	maxLen  int
}

func (d *discardSink) PushChunk(iq []complex128) error {
	d.chunks++
	d.samples += len(iq)
	if len(iq) > d.maxLen {
		d.maxLen = len(iq)
	}
	return nil
}

func (d *discardSink) Flush() error { return nil }

func run(t *testing.T, cfg Config) (*Report, *discardSink) {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := &discardSink{}
	rep, err := e.Run(sink)
	if err != nil {
		t.Fatal(err)
	}
	return rep, sink
}

// TestConfigValidation pins the structural error surface — and that
// the legacy zero-value sentinels are gone: 0 dB SNR and a zero mean
// gap are valid, representable scenarios here.
func TestConfigValidation(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	bad := []struct {
		name   string
		mutate func(*Config)
		want   error
	}{
		{"no senders", func(c *Config) { c.Senders = 0 }, errSenders},
		{"no frames", func(c *Config) { c.FramesPerSender = 0 }, errSenders},
		{"257 frames", func(c *Config) { c.FramesPerSender = 257 }, errFrames},
		{"too many senders", func(c *Config) { c.Senders = 1<<16 + 1 }, errTooMany},
		{"narrow identity", func(c *Config) { c.Senders = 300; c.DataBytes = 2 }, errIdentity},
		{"no data", func(c *Config) { c.DataBytes = 0 }, errDataBytes},
		{"too much data", func(c *Config) { c.DataBytes = 99 }, errDataBytes},
		{"negative gap", func(c *Config) { c.MeanGapAirtimes = -1 }, errGap},
		{"negative cfo", func(c *Config) { c.CFOJitterHz = -1 }, errJitter},
		{"no chunk", func(c *Config) { c.ChunkSamples = 0 }, errChunk},
		// A sender draws its SFO in ±SFOppm: at 1e6 ppm or more its
		// resample ratio can reach zero or below.
		{"sfo 1e6", func(c *Config) { c.SFOppm = 1e6 }, errSFORange},
		{"sfo 3e6", func(c *Config) { c.SFOppm = 3e6 }, errSFORange},
		{"nan snr", func(c *Config) { c.SNRdB = nan }, errNonFinite},
		{"inf snr", func(c *Config) { c.SNRdB = -inf }, errNonFinite},
		{"nan gap", func(c *Config) { c.MeanGapAirtimes = nan }, errNonFinite},
		{"inf gap", func(c *Config) { c.MeanGapAirtimes = inf }, errNonFinite},
		{"nan cfo", func(c *Config) { c.CFOJitterHz = nan }, errNonFinite},
		{"inf cfo", func(c *Config) { c.CFOJitterHz = inf }, errNonFinite},
		{"nan sfo", func(c *Config) { c.SFOppm = nan }, errNonFinite},
		{"inf sfo", func(c *Config) { c.SFOppm = inf }, errNonFinite},
		{"nan gain", func(c *Config) { c.GainSpreadDB = nan }, errNonFinite},
		{"inf gain", func(c *Config) { c.GainSpreadDB = inf }, errNonFinite},
	}
	for _, tc := range bad {
		cfg := Defaults()
		cfg.Senders, cfg.FramesPerSender = 2, 2
		tc.mutate(&cfg)
		if err := cfg.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate = %v, want %v", tc.name, err, tc.want)
		}
		if _, err := NewEngine(cfg); !errors.Is(err, tc.want) {
			t.Errorf("%s: NewEngine error = %v, want %v", tc.name, err, tc.want)
		}
	}
	good := Defaults()
	good.Senders, good.FramesPerSender = 2, 2
	good.SNRdB = 0           // a genuine 0 dB scenario
	good.MeanGapAirtimes = 0 // back-to-back transmission
	good.SFOppm = 999999     // every drawn clock still runs forwards
	if err := good.Validate(); err != nil {
		t.Errorf("0 dB / zero-gap / large-SFO config rejected: %v", err)
	}
}

// TestScheduleDeterminism pins the seed contract at the engine level:
// equal seeds reproduce the full report (schedule, collisions, peaks)
// exactly, different seeds move the schedule.
func TestScheduleDeterminism(t *testing.T) {
	cfg := Defaults()
	cfg.Senders, cfg.FramesPerSender, cfg.Seed = 5, 3, 11
	cfg.MeanGapAirtimes = 1
	cfg.CFOJitterHz, cfg.SFOppm, cfg.GainSpreadDB = 20e3, 10, 3
	a, sinkA := run(t, cfg)
	b, sinkB := run(t, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different reports:\n%+v\n%+v", a, b)
	}
	if sinkA.samples != sinkB.samples || sinkA.chunks != sinkB.chunks {
		t.Errorf("same seed, different capture stream: %+v vs %+v", sinkA, sinkB)
	}
	cfg.Seed = 12
	c, _ := run(t, cfg)
	if c.DurationSec == a.DurationSec && c.Collisions == a.Collisions {
		t.Error("different seeds left schedule and collisions identical")
	}
}

// TestZeroGapZeroSNR runs the scenario the legacy sentinels could not
// express: senders at 0 dB transmitting back-to-back.
func TestZeroGapZeroSNR(t *testing.T) {
	cfg := Defaults()
	cfg.Senders, cfg.FramesPerSender, cfg.Seed = 1, 3, 1
	cfg.SNRdB = 0
	cfg.MeanGapAirtimes = 0
	rep, sink := run(t, cfg)
	if rep.Collisions != 0 {
		t.Errorf("single sender collided %d times", rep.Collisions)
	}
	// Back-to-back frames may straddle one chunk window at the seam,
	// so a single sender's overlap peaks at 2, never more.
	if rep.PeakOverlap > 2 {
		t.Errorf("peak overlap %d, want <= 2", rep.PeakOverlap)
	}
	// Back-to-back: capture = 3 contiguous airtimes plus the decode pad.
	if got := rep.TotalSamples; got <= 3*rep.AirtimeSamples {
		t.Errorf("total %d samples, want > %d", got, 3*rep.AirtimeSamples)
	}
	if sink.samples != rep.TotalSamples {
		t.Errorf("sink saw %d samples, report says %d", sink.samples, rep.TotalSamples)
	}
	if sink.maxLen > cfg.ChunkSamples {
		t.Errorf("chunk of %d samples exceeds configured %d", sink.maxLen, cfg.ChunkSamples)
	}
}

// TestPeakWindowIndependentOfFrames pins the memory model: the peak
// synthesized-window size is a function of overlap width and airtime
// (at most twice the sender count when a frame seam straddles a chunk
// window), not of how many frames each sender sends (total airtime).
func TestPeakWindowIndependentOfFrames(t *testing.T) {
	for _, senders := range []int{1, 4} {
		peaks := map[int]bool{}
		for _, frames := range []int{2, 4, 16} {
			cfg := Defaults()
			cfg.Senders, cfg.FramesPerSender, cfg.Seed = senders, frames, 7
			cfg.MeanGapAirtimes = 0 // continuous occupancy: overlap = senders
			rep, _ := run(t, cfg)
			if rep.PeakWindowSamples != rep.PeakOverlap*rep.AirtimeSamples {
				t.Errorf("N=%d F=%d: peak window %d samples, want overlap %d × airtime %d",
					senders, frames, rep.PeakWindowSamples, rep.PeakOverlap, rep.AirtimeSamples)
			}
			if rep.PeakOverlap > 2*senders {
				t.Errorf("N=%d F=%d: peak overlap %d exceeds seam bound %d",
					senders, frames, rep.PeakOverlap, 2*senders)
			}
			peaks[rep.PeakWindowSamples] = true
		}
		if len(peaks) != 1 {
			t.Errorf("N=%d: peak window varies with FramesPerSender: %v", senders, peaks)
		}
	}
}

// TestEngineSingleRun pins the single-use contract and the decode
// feedback path.
func TestEngineSingleRun(t *testing.T) {
	cfg := Defaults()
	cfg.Senders, cfg.FramesPerSender, cfg.Seed = 1, 1, 1
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(nil); !errors.Is(err, errNilSink) {
		t.Errorf("nil sink: %v", err)
	}
	if _, err := e.Run(&discardSink{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(&discardSink{}); !errors.Is(err, errRan) {
		t.Errorf("second run: %v", err)
	}
	if e.MarkDecoded(9, 9) {
		t.Error("unknown transmission credited")
	}
	if !e.MarkDecoded(0, 0) {
		t.Error("known transmission not credited")
	}
	if e.MarkDecoded(0, 0) {
		t.Error("transmission credited twice")
	}
}
