package link

// The dense reference implementation of the shared-medium scenario: it
// materializes every sender's every waveform and superposes them into
// one whole capture before receiving it. It is kept test-only as the
// ground truth the event-driven medium engine behind RunMedium must
// reproduce bit-for-bit (TestMediumLinkEquivalence); production code
// routes through internal/medium, whose memory is bounded by overlap
// width instead of total airtime.

import (
	"math"
	"sort"

	"symbee/internal/channel"
	"symbee/internal/core"
	"symbee/internal/dsp"
	"symbee/internal/medium"
	"symbee/internal/splitmix"
	"symbee/internal/wifi"
)

// refTransmission is one frame's placement on the shared timeline.
type refTransmission struct {
	sender  int
	seq     int
	start   int // sample index of the first signal sample
	end     int // one past the last signal sample
	sig     []complex128
	gain    complex128
	collide bool
	decoded bool
}

// referenceMultiSender is the dense implementation: draw all
// schedules, materialize and superpose every waveform, AWGN the whole
// capture, then stream it into one receive stack. It reports every
// medium.Report field except the engine's own memory accounting
// (PeakOverlap, PeakWindowSamples), which a dense capture has no
// counterpart for. Sender identities must fit one byte (N ≤ 256).
func referenceMultiSender(cfg medium.Config) (*medium.Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := cfg.Params
	phy, err := core.NewLink(p, 0)
	if err != nil {
		return nil, err
	}
	txs, err := refBuildSchedules(cfg, phy)
	if err != nil {
		return nil, err
	}
	refMarkCollisions(txs)
	capture := refSuperpose(cfg, p, txs)
	if err := refReceiveAll(cfg, p, capture, txs); err != nil {
		return nil, err
	}
	return refReport(cfg, p, capture, txs), nil
}

// refBuildSchedules draws every sender's frame placements and impaired
// waveforms up front — O(senders · frames · airtime) memory.
func refBuildSchedules(cfg medium.Config, phy *core.Link) ([]*refTransmission, error) {
	var txs []*refTransmission
	for s := 0; s < cfg.Senders; s++ {
		rng := splitmix.New(cfg.Seed, s)
		cfo := channel.DefaultFreqOffset
		if cfg.CFOJitterHz > 0 {
			cfo += (2*rng.Float64() - 1) * cfg.CFOJitterHz
		}
		sfo := 0.0
		if cfg.SFOppm > 0 {
			sfo = (2*rng.Float64() - 1) * cfg.SFOppm
		}
		snr := cfg.SNRdB
		if cfg.GainSpreadDB > 0 {
			snr += (2*rng.Float64() - 1) * cfg.GainSpreadDB
		}
		gain := complex(math.Sqrt(dsp.FromDB(snr)), 0)

		pos := 0
		for seq := 0; seq < cfg.FramesPerSender; seq++ {
			data := make([]byte, cfg.DataBytes)
			data[0] = byte(s)
			if cfg.DataBytes > 1 {
				data[1] = byte(seq)
			}
			payload, err := core.EncodeFrame(&core.Frame{Seq: byte(seq), Data: data})
			if err != nil {
				return nil, err
			}
			sig, err := phy.PayloadToSignal(payload)
			if err != nil {
				return nil, err
			}
			if sfo != 0 {
				sig = channel.ApplySFO(sig, sfo)
			}
			if cfo != 0 {
				channel.ApplyCFO(sig, cfo, phy.Params().SampleRate)
			}
			airtime := len(sig)
			gap := int(rng.ExpFloat64() * cfg.MeanGapAirtimes * float64(airtime))
			pos += gap
			txs = append(txs, &refTransmission{
				sender: s,
				seq:    seq,
				start:  pos,
				end:    pos + airtime,
				sig:    sig,
				gain:   gain,
			})
			pos += airtime
		}
	}
	sort.Slice(txs, func(i, j int) bool {
		if txs[i].start != txs[j].start {
			return txs[i].start < txs[j].start
		}
		if txs[i].sender != txs[j].sender {
			return txs[i].sender < txs[j].sender
		}
		return txs[i].seq < txs[j].seq
	})
	return txs, nil
}

// refMarkCollisions flags every transmission whose airtime interval
// overlaps another transmission's. txs must be sorted by start.
func refMarkCollisions(txs []*refTransmission) {
	maxEnd := -1
	lastIdx := -1
	for i, tx := range txs {
		if lastIdx >= 0 && tx.start < maxEnd {
			tx.collide = true
			txs[lastIdx].collide = true
		}
		if tx.end > maxEnd {
			maxEnd = tx.end
			lastIdx = i
		}
	}
}

// refSuperpose lays every impaired waveform onto one shared capture
// and adds unit receiver noise, with a decode-gate pad after the final
// transmission.
func refSuperpose(cfg medium.Config, p core.Params, txs []*refTransmission) []complex128 {
	total := 0
	for _, tx := range txs {
		if tx.end > total {
			total = tx.end
		}
	}
	pad := core.DecodeGateSpan(p) + 12*p.BitPeriod + p.Lag
	capture := make([]complex128, total+pad)
	for _, tx := range txs {
		for i, v := range tx.sig {
			capture[tx.start+i] += v * tx.gain
		}
	}
	rng := splitmix.New(cfg.Seed, splitmix.NoiseStream)
	channel.AddAWGN(capture, 1, rng)
	return capture
}

// refReceiveAll runs the capture through one streaming-preset Stack in
// chunks and matches decoded frames back to their transmissions.
func refReceiveAll(cfg medium.Config, p core.Params, capture []complex128, txs []*refTransmission) error {
	dec, err := core.NewDecoder(p, wifi.CanonicalCompensation)
	if err != nil {
		return err
	}
	st, err := NewStreaming(dec, 0, nil)
	if err != nil {
		return err
	}
	match := func(events []Event) {
		for _, ev := range events {
			if ev.Kind != core.EventFrame || len(ev.Frame.Data) == 0 {
				continue
			}
			sender := int(ev.Frame.Data[0])
			seq := int(ev.Frame.Seq)
			for _, tx := range txs {
				if tx.sender == sender && tx.seq == seq && !tx.decoded {
					tx.decoded = true
					break
				}
			}
		}
	}
	for off := 0; off < len(capture); off += cfg.ChunkSamples {
		end := off + cfg.ChunkSamples
		if end > len(capture) {
			end = len(capture)
		}
		if err := st.PushIQ(capture[off:end]); err != nil {
			return err
		}
		match(st.Drain())
	}
	if err := st.Flush(); err != nil {
		return err
	}
	match(st.Drain())
	return nil
}

// refReport folds the per-transmission outcomes into the scenario
// report.
func refReport(cfg medium.Config, p core.Params, capture []complex128, txs []*refTransmission) *medium.Report {
	per := make([]medium.SenderStats, cfg.Senders)
	for i := range per {
		per[i].Sender = i
	}
	delivered, collisions := 0, 0
	for _, tx := range txs {
		st := &per[tx.sender]
		st.Sent++
		if tx.decoded {
			st.Delivered++
			delivered++
		}
		if tx.collide {
			st.Collided++
			collisions++
			if tx.decoded {
				st.CollidedDelivered++
			}
		}
	}
	for i := range per {
		if per[i].Sent > 0 {
			per[i].DeliveryRate = float64(per[i].Delivered) / float64(per[i].Sent)
			per[i].CollisionRate = float64(per[i].Collided) / float64(per[i].Sent)
		}
	}
	duration := float64(len(capture)) / p.SampleRate
	total := cfg.Senders * cfg.FramesPerSender
	return &medium.Report{
		Senders:              cfg.Senders,
		FramesPerSender:      cfg.FramesPerSender,
		Seed:                 cfg.Seed,
		OfferedLoadPerSender: cfg.OfferedLoadPerSender(),
		DurationSec:          duration,
		AirtimeSamples:       txs[0].end - txs[0].start,
		TotalSamples:         len(capture),
		Delivered:            delivered,
		Collisions:           collisions,
		GoodputBps:           float64(delivered*cfg.DataBytes*8) / duration,
		CollisionRate:        float64(collisions) / float64(total),
		DeliveryRate:         float64(delivered) / float64(total),
		PerSender:            per,
	}
}
