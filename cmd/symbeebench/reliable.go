package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"symbee/internal/channel"
	"symbee/internal/cli"
	"symbee/internal/link"
	"symbee/internal/reliable"
)

// reliableRun is one loss point of a scheme's sweep in the JSON
// artifact. Forward and reverse airtime are ledgered separately: the
// reverse channel is a modeled CTC downlink, not a free side channel.
type reliableRun struct {
	Loss              float64 `json:"loss"`
	Delivered         int     `json:"delivered"`
	Runs              int     `json:"runs"`
	GoodputBps        float64 `json:"goodput_bps"` // mean over delivered runs
	Retransmits       int     `json:"retransmits"` // totals over all runs
	Timeouts          int     `json:"timeouts"`
	Escalations       int     `json:"escalations"`
	AirtimeSec        float64 `json:"airtime_s"`
	ReverseAirtimeSec float64 `json:"reverse_airtime_s"`
	AcksSent          int     `json:"acks_sent"`
	AcksDropped       int     `json:"acks_dropped"`
	AckCollisions     int     `json:"ack_collisions"`
	ForwardCollisions int     `json:"forward_collisions"`
}

// reliableScheme is one downlink's measurement block: clean-channel
// goodput and reverse-airtime share, plus the goodput-vs-loss sweep.
type reliableScheme struct {
	Scheme          string        `json:"scheme"`
	AckLatencySec   float64       `json:"ack_latency_s"`
	CleanGoodputBps float64       `json:"clean_goodput_bps"`
	ReverseFraction float64       `json:"reverse_airtime_fraction"`
	ReverseOK       bool          `json:"reverse_ok"`
	LossSweep       []reliableRun `json:"loss_sweep"`
}

// reliableArtifact is the schema of BENCH_reliable.json.
type reliableArtifact struct {
	Benchmark    string              `json:"benchmark"`
	MessageBytes int                 `json:"message_bytes"`
	Profile      channel.FaultConfig `json:"soak_profile"`

	// Acceptance: every seeded run under the soak profile — acks riding
	// the C-Morse downlink — must deliver the message intact.
	SoakRuns       int  `json:"soak_runs"`
	BatchDelivered int  `json:"batch_delivered"`
	SoakOK         bool `json:"soak_ok"`

	// Bidirectional acceptance: 10% loss forward, 10% per-copy loss on
	// the reverse path with Repeat-2 acks — every run must deliver.
	BidirRuns      int  `json:"bidir_runs"`
	BidirDelivered int  `json:"bidir_delivered"`
	BidirOK        bool `json:"bidir_ok"`

	// Overhead: forward airtime vs the fire-and-forget baseline on a
	// clean channel with the ideal downlink (acceptance bound: ≤5%).
	// Under a modeled downlink go-back-N inherently retransmits
	// delivered-but-unacked frames; that honest cost shows up in the
	// per-scheme sweeps instead.
	ARQAirtimeSec   float64 `json:"arq_airtime_s"`
	PlainAirtimeSec float64 `json:"plain_airtime_s"`
	OverheadPct     float64 `json:"overhead_pct"`
	OverheadOK      bool    `json:"overhead_ok"`

	// Per-downlink measurements: ideal baseline plus every modeled
	// scheme. Acceptance: each modeled scheme moves real reverse
	// airtime (fraction > 0).
	Schemes []reliableScheme `json:"schemes"`
}

// reliableTransfer runs one ARQ transfer of msg over the given fault
// profile and downlink, reporting the session report, the reverse
// ledger and whether the message arrived intact.
func reliableTransfer(msg []byte, faults channel.FaultConfig,
	downlink reliable.DownlinkScheme, ackRepeat int) (*reliable.Report, link.DownlinkLedger, bool, error) {
	m := link.NewMetrics()
	cfg := reliable.DefaultSimConfig()
	cfg.Faults = faults
	cfg.Downlink = downlink
	cfg.AckRepeat = ackRepeat
	cfg.Metrics = m
	sl, err := reliable.NewSimLink(cfg)
	if err != nil {
		return nil, link.DownlinkLedger{}, false, err
	}
	defer sl.Close()
	scfg := reliable.DefaultConfig()
	scfg.Seed = faults.Seed
	scfg.Metrics = m
	s, err := reliable.NewSession(sl, scfg)
	if err != nil {
		return nil, link.DownlinkLedger{}, false, err
	}
	rep, err := s.Send(context.Background(), msg)
	if err != nil {
		// Exhausted retries counts as undelivered, not a bench failure.
		return rep, sl.ReverseStats(), false, nil
	}
	msgs := sl.Messages()
	ok := len(msgs) == 1 && bytes.Equal(msgs[0], msg)
	return rep, sl.ReverseStats(), ok, nil
}

func benchMessage(seed int64, n int) []byte {
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(int64(i)*31 + seed*17 + 5)
	}
	return msg
}

// runReliableBench measures the reliability layer — the 100-run soak
// acceptance, the bidirectional soak, the clean-channel airtime
// overhead, and per-downlink goodput across an i.i.d. loss sweep — and
// writes BENCH_reliable.json.
func runReliableBench(seed int64, runs, msgLen int, outPath string) error {
	if runs < 1 {
		return fmt.Errorf("-reliable-runs must be positive, got %d", runs)
	}
	if msgLen < 1 {
		return fmt.Errorf("-reliable-msg must be positive, got %d", msgLen)
	}
	art := reliableArtifact{
		Benchmark:    "reliable-arq",
		MessageBytes: msgLen,
		Profile:      reliable.ProfileSoak(0),
		SoakRuns:     runs,
	}

	fmt.Printf("reliable ARQ bench: %d-byte message, %d soak runs\n", msgLen, runs)
	start := time.Now()
	for i := 0; i < runs; i++ {
		s := seed + int64(i) - 1 // seeds 0..runs-1 for the default -seed 1
		_, _, ok, err := reliableTransfer(benchMessage(s, msgLen), reliable.ProfileSoak(s),
			reliable.DownlinkCMorse, 1)
		if err != nil {
			return err
		}
		if ok {
			art.BatchDelivered++
		}
	}
	fmt.Printf("  soak   %d/%d delivered\n", art.BatchDelivered, runs)
	art.SoakOK = art.BatchDelivered == runs

	// Bidirectional soak: matched 10% loss in both directions, Repeat-2
	// acks for reverse loss protection.
	art.BidirRuns = runs / 10
	if art.BidirRuns < 3 {
		art.BidirRuns = 3
	}
	for i := 0; i < art.BidirRuns; i++ {
		s := seed + int64(i) - 1
		_, _, ok, err := reliableTransfer(benchMessage(s, msgLen), reliable.ProfileBidir(s),
			reliable.DownlinkCMorse, 2)
		if err != nil {
			return err
		}
		if ok {
			art.BidirDelivered++
		}
	}
	art.BidirOK = art.BidirDelivered == art.BidirRuns
	fmt.Printf("  bidir  %d/%d delivered (10%%/10%% loss, repeat-2 acks)\n",
		art.BidirDelivered, art.BidirRuns)

	rep, _, ok, err := reliableTransfer(benchMessage(1, msgLen), channel.FaultConfig{},
		reliable.DownlinkIdeal, 1)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("clean-channel transfer failed")
	}
	art.ARQAirtimeSec = rep.Airtime.Seconds()
	art.PlainAirtimeSec = reliable.PlainAirtime(msgLen).Seconds()
	art.OverheadPct = (art.ARQAirtimeSec/art.PlainAirtimeSec - 1) * 100
	art.OverheadOK = art.OverheadPct <= 5
	fmt.Printf("  overhead: ARQ %.2f ms vs plain %.2f ms forward airtime (%+.2f%%, ideal downlink)\n",
		art.ARQAirtimeSec*1e3, art.PlainAirtimeSec*1e3, art.OverheadPct)

	const sweepSeeds = 2
	schemesOK := true
	for _, dl := range reliable.DownlinkSchemes() {
		block := reliableScheme{Scheme: dl.String()}
		for _, loss := range []float64{0, 0.05, 0.10, 0.20, 0.30} {
			row := reliableRun{Loss: loss, Runs: sweepSeeds}
			var goodput float64
			for i := int64(0); i < sweepSeeds; i++ {
				faults := channel.FaultConfig{Seed: seed + i, FrameLoss: loss, AckLoss: loss / 2}
				rep, rs, ok, err := reliableTransfer(benchMessage(seed+i, msgLen), faults, dl, 1)
				if err != nil {
					return err
				}
				if ok {
					row.Delivered++
					goodput += rep.GoodputBps()
				}
				if rep != nil {
					row.Retransmits += rep.Retransmits
					row.Timeouts += rep.Timeouts
					row.Escalations += rep.Escalations
					row.AirtimeSec += rep.Airtime.Seconds()
				}
				row.ReverseAirtimeSec += rs.Airtime.Seconds()
				row.AcksSent += rs.AcksSent
				row.AcksDropped += rs.AcksDropped
				row.AckCollisions += rs.AckCollisions
				row.ForwardCollisions += rs.ForwardCollisions
			}
			if row.Delivered > 0 {
				row.GoodputBps = goodput / float64(row.Delivered)
			}
			block.LossSweep = append(block.LossSweep, row)
		}
		clean := block.LossSweep[0]
		block.CleanGoodputBps = clean.GoodputBps
		if total := clean.AirtimeSec + clean.ReverseAirtimeSec; total > 0 {
			block.ReverseFraction = clean.ReverseAirtimeSec / total
		}
		if !dl.Modeled() {
			block.ReverseOK = block.ReverseFraction == 0
		} else {
			// The acceptance gate: a modeled downlink must move real
			// reverse airtime — acks are never free.
			block.ReverseOK = block.ReverseFraction > 0
			// AckLatency of the scheme, via a throwaway link.
			cfg := reliable.DefaultSimConfig()
			cfg.Downlink = dl
			l, err := reliable.NewSimLink(cfg)
			if err != nil {
				return err
			}
			block.AckLatencySec = l.AckLatency().Seconds()
			l.Close()
		}
		schemesOK = schemesOK && block.ReverseOK
		art.Schemes = append(art.Schemes, block)
		fmt.Printf("  downlink %-8s clean goodput %7.0f bps, reverse share %5.2f%%, ack latency %6.1f ms\n",
			block.Scheme, block.CleanGoodputBps, block.ReverseFraction*100, block.AckLatencySec*1e3)
		for _, row := range block.LossSweep {
			fmt.Printf("    loss %4.0f%%: %d/%d delivered, goodput %7.0f bps, %d rtx, %d timeouts, %d collisions\n",
				row.Loss*100, row.Delivered, row.Runs, row.GoodputBps, row.Retransmits,
				row.Timeouts, row.AckCollisions+row.ForwardCollisions)
		}
	}
	fmt.Printf("  [%v] soak_ok=%v bidir_ok=%v overhead_ok=%v reverse_ok=%v\n",
		time.Since(start).Round(time.Second), art.SoakOK, art.BidirOK, art.OverheadOK, schemesOK)

	if wrote, err := cli.WriteJSON(outPath, art); err != nil {
		return err
	} else if wrote {
		fmt.Printf("  wrote %s\n", outPath)
	}
	if !art.SoakOK || !art.BidirOK || !art.OverheadOK || !schemesOK {
		return fmt.Errorf("acceptance failed: soak %d/%d, bidir %d/%d, overhead %.2f%%, reverse_ok %v",
			art.BatchDelivered, runs,
			art.BidirDelivered, art.BidirRuns, art.OverheadPct, schemesOK)
	}
	return nil
}
