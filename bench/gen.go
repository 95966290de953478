package main

import (
	"fmt"
	"math"

	"symbee/internal/channel"
	"symbee/internal/core"
	"symbee/internal/medium"
	"symbee/internal/splitmix"
)

// Every workload input is a pure function of the workload seed; the
// program under test only ever sees the generated samples, messages and
// scenario configs.

const (
	// sampleRate is the Params20 air rate every workload replays at.
	sampleRate = 20e6
	// chunkSamples is the IQ chunk a live front end hands the receiver.
	chunkSamples = 4096
)

// RNG streams of the generators (splitmix convention: one stream per
// independent draw sequence).
const (
	streamSchedule = 0 // frame layout draws: lengths, payloads, SNRs, gaps
	streamMessage  = 1 // ARQ message bytes
	streamIdleBase = 2 // idle noise, one stream per air stream
)

// genNoise returns n samples of unit-power complex AWGN.
func genNoise(seed int64, stream, n int) []complex128 {
	rng := splitmix.New(seed, stream)
	s := math.Sqrt(0.5)
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.NormFloat64()*s, rng.NormFloat64()*s)
	}
	return out
}

// truthFrame is one frame of a busy_air corpus: where it sits on air and
// what it carries.
type truthFrame struct {
	start, end int // first and last sample of the ZigBee packet
	frame      core.Frame
}

// corpus is a busy_air capture: back-to-back SymBee frames over a unit
// noise floor, with the ground truth of every frame.
type corpus struct {
	iq     []complex128
	frames []truthFrame
}

// Corpus shape: payloads of 0..MaxDataBytes bytes at an SNR uniform in
// [minSNRdB, maxSNRdB] with the default carrier offset, separated by
// noise gaps uniform in [minGap, maxGap] samples (0.75–1.5 ms). The
// receiver often false-locks on a packet's tail (the ZigBee FCS after
// the SymBee frame), and that lock's selection span runs about 17 bit
// periods on; a gap shorter than ~0.6 ms lets it swallow the next
// preamble, and that frame is lost. With these gaps every frame of 130
// seeds decodes, so a missed frame is a regression, not the workload.
const (
	minSNRdB = 10
	maxSNRdB = 16
	minGap   = 15000
	maxGap   = 30000
)

// genCorpus builds a busy_air corpus of n samples. The capture starts
// and ends on a noise gap, so looping it keeps every frame intact.
func genCorpus(seed int64, n int) (*corpus, error) {
	phy, err := core.NewLink(core.Params20(), 0)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	rng := splitmix.New(seed, streamSchedule)
	c := &corpus{iq: genNoise(seed, splitmix.NoiseStream, n)}
	gap := func() int { return minGap + rng.Intn(maxGap-minGap+1) }
	for cur := gap(); ; {
		data := make([]byte, rng.Intn(core.MaxDataBytes+1))
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		f := core.Frame{Seq: byte(rng.Intn(256)), Data: data}
		snr := minSNRdB + (maxSNRdB-minSNRdB)*rng.Float64()
		next := gap()
		sig, err := phy.TransmitFrame(&f)
		if err != nil {
			return nil, fmt.Errorf("corpus: %w", err)
		}
		if cur+len(sig)+next > n {
			return c, nil
		}
		channel.ApplyCFO(sig, channel.DefaultFreqOffset, sampleRate)
		var p float64
		for _, v := range sig {
			p += real(v)*real(v) + imag(v)*imag(v)
		}
		a := complex(math.Sqrt(math.Pow(10, snr/10)/(p/float64(len(sig)))), 0)
		for i, v := range sig {
			c.iq[cur+i] += a * v
		}
		c.frames = append(c.frames, truthFrame{start: cur, end: cur + len(sig) - 1, frame: f})
		cur += len(sig) + next
	}
}

// frameAt returns the index of the corpus frame whose air span holds
// sample off, or -1.
func (c *corpus) frameAt(off int) int {
	lo, hi := 0, len(c.frames)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.frames[mid].end < off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(c.frames) && c.frames[lo].start <= off {
		return lo
	}
	return -1
}

// arqMessage returns the n-byte message of one ARQ transfer.
func arqMessage(seed int64, n int) []byte {
	rng := splitmix.New(seed, streamMessage)
	msg := make([]byte, n)
	rng.Read(msg)
	return msg
}

// crowdConfig returns one crowd scenario: the BENCH_density.json
// impairments (4 frames per sender, mean gap 4 airtimes, 20 kHz CFO
// jitter, 10 ppm SFO, 3 dB gain spread) at the given population.
func crowdConfig(seed int64, senders, frames int) medium.Config {
	cfg := medium.Defaults()
	cfg.Seed = seed
	cfg.Senders = senders
	cfg.FramesPerSender = frames
	cfg.MeanGapAirtimes = 4
	cfg.CFOJitterHz = 20e3
	cfg.SFOppm = 10
	cfg.GainSpreadDB = 3
	return cfg
}
