package sim

//symbee:ignore-file rngstream -- eachPacket seeds each batch with rand.NewSource(seed): the paper artifacts were generated from these exact streams, and rederiving them through splitmix would silently regenerate different curves. New figures must split streams via internal/splitmix.

import (
	"fmt"
	"math/rand"

	"symbee/internal/channel"
	"symbee/internal/core"
	"symbee/internal/wifi"
)

// Options tunes experiment cost and reproducibility.
type Options struct {
	// Seed makes every experiment deterministic.
	Seed int64
	// Packets per measurement point (0 → per-experiment default).
	Packets int
	// Short divides the default packet counts by 4 (used by `go test`).
	Short bool
}

func (o Options) packets(def int) int {
	n := o.Packets
	if n == 0 {
		n = def
	}
	if o.Short {
		n = (n + 3) / 4
		if n < 4 {
			n = 4
		}
	}
	return n
}

// AlternatingBits returns the paper's evaluation workload: n bits of
// repeated "01" (§VIII sends 50 repeated '01' per packet).
func AlternatingBits(n int) []byte {
	bits := make([]byte, n)
	for i := range bits {
		bits[i] = byte(i % 2)
	}
	return bits
}

// LinkStats aggregates one batch of packet transmissions.
type LinkStats struct {
	// Packets sent, and how many had their preamble captured and
	// decoded (raw mode: preamble capture; frame mode: CRC pass).
	Packets, Captured int
	// BitsPerPacket in the workload.
	BitsPerPacket int
	// WrongBits among captured packets.
	WrongBits int
	// Margins collects the per-bit constellation statistic when
	// requested (nonnegative counts per stable window).
	Margins []int
	// MarginBits are the ground-truth bits matching Margins.
	MarginBits []byte
	// MeanSNR is the average of the per-packet SNR draws.
	MeanSNR float64
}

// CaptureRate is the fraction of packets whose preamble was captured.
func (s *LinkStats) CaptureRate() float64 {
	if s.Packets == 0 {
		return 0
	}
	return float64(s.Captured) / float64(s.Packets)
}

// BER is the bit error rate among captured packets.
func (s *LinkStats) BER() float64 {
	bits := s.Captured * s.BitsPerPacket
	if bits == 0 {
		return 1
	}
	return float64(s.WrongBits) / float64(bits)
}

// Throughput converts the batch into the paper's throughput metric:
// the 31.25 kbps instantaneous rate scaled by the fraction of all sent
// bits that arrived correctly (lost packets deliver nothing).
func (s *LinkStats) Throughput(p core.Params) float64 {
	total := s.Packets * s.BitsPerPacket
	if total == 0 {
		return 0
	}
	correct := s.Captured*s.BitsPerPacket - s.WrongBits
	return p.RawBitRate() * float64(correct) / float64(total)
}

// RunSpec describes one batch of raw-mode packet transmissions.
type RunSpec struct {
	// Params selects 20/40 MHz operation.
	Params core.Params
	// Bits is the SymBee payload of every packet.
	Bits []byte
	// Packets to send.
	Packets int
	// Seed drives all randomness.
	Seed int64
	// ConfigFor draws the channel configuration for one packet. A
	// config with Mobility set keeps one medium, and so one fading
	// track, across the whole batch.
	ConfigFor func(rng *rand.Rand) channel.Config
	// CollectMargins records per-bit constellation statistics.
	CollectMargins bool
}

// Run transmits the batch and aggregates statistics over eachPacket's
// seeded, in-order stream, so the result does not depend on the host
// that computed it.
func Run(spec RunSpec) (*LinkStats, error) {
	link, sig, err := newLink(spec.Params, spec.Bits)
	if err != nil {
		return nil, err
	}
	dec := link.Decoder()
	stats := &LinkStats{Packets: spec.Packets, BitsPerPacket: len(spec.Bits)}
	var snrSum float64
	err = eachPacket(sig, spec.Packets, spec.Seed, spec.ConfigFor, func(capture []complex128, cfg channel.Config, _ *rand.Rand) {
		snrSum += cfg.SNRdB
		phases := link.Phases(capture)
		anchor, err := dec.CapturePreamble(phases)
		if err != nil {
			return
		}
		got, err := dec.DecodeSyncBits(phases, anchor, len(spec.Bits))
		if err != nil {
			return
		}
		stats.Captured++
		for k := range spec.Bits {
			if got[k] != spec.Bits[k] {
				stats.WrongBits++
			}
		}
		if spec.CollectMargins {
			if margins, err := dec.SyncBitMargins(phases, anchor, len(spec.Bits)); err == nil {
				stats.Margins = append(stats.Margins, margins...)
				stats.MarginBits = append(stats.MarginBits, spec.Bits...)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	stats.MeanSNR = snrSum / float64(spec.Packets)
	return stats, nil
}

// eachPacket is the package's one loop over channel.Medium: it sends sig
// packets times, one after another, and a single generator seeded with
// seed draws each packet's config from configFor and then its medium.
// A config with Mobility set keeps the first such medium, and so one
// fading track, for the rest of the batch. visit receives each capture
// with its config and the generator, which it may draw from further.
func eachPacket(sig []complex128, packets int, seed int64, configFor func(*rand.Rand) channel.Config,
	visit func(capture []complex128, cfg channel.Config, rng *rand.Rand)) error {
	if packets <= 0 {
		return fmt.Errorf("sim: non-positive packet count %d", packets)
	}
	rng := rand.New(rand.NewSource(seed))
	var track *channel.Medium // the mobility medium, once drawn
	for i := 0; i < packets; i++ {
		cfg := configFor(rng)
		med := track
		if med == nil || cfg.Mobility == nil {
			var err error
			if med, err = channel.NewMedium(cfg, rng); err != nil {
				return err
			}
			if cfg.Mobility != nil {
				track = med
			}
		}
		visit(med.Transmit(sig), cfg, rng)
	}
	return nil
}

// newLink builds a link at p with the canonical CFO compensation, and
// the waveform that carries bits over it.
func newLink(p core.Params, bits []byte) (*core.Link, []complex128, error) {
	link, err := core.NewLink(p, wifi.CanonicalCompensation)
	if err != nil {
		return nil, nil, err
	}
	sig, err := link.TransmitBits(bits)
	if err != nil {
		return nil, nil, err
	}
	return link, sig, nil
}

// awgn is the fixed channel most experiments run on: white noise at snr
// dB, the canonical carrier offset, and pad noise-only samples on each
// side of the packet.
func awgn(p core.Params, snr float64, pad int) func(*rand.Rand) channel.Config {
	cfg := channel.Config{SampleRate: p.SampleRate, SNRdB: snr, FreqOffset: channel.DefaultFreqOffset, Pad: pad}
	return func(*rand.Rand) channel.Config { return cfg }
}
