package main

import (
	"fmt"
	"time"

	"symbee/internal/cli"
	"symbee/internal/link"
	"symbee/internal/medium"
)

// densityArtifact is the schema of BENCH_density.json: the
// event-driven shared-medium scenario swept over population widths up
// to 1024 senders, yielding the goodput-vs-density and
// collision-rate-vs-density curves. The artifact is a pure function of
// the seed and sweep knobs (no wall-clock fields), so equal seeds
// produce byte-identical files.
type densityArtifact struct {
	Benchmark       string       `json:"benchmark"`
	Seed            int64        `json:"seed"`
	FramesPerSender int          `json:"frames_per_sender"`
	MeanGapAirtimes float64      `json:"mean_gap_airtimes"`
	DataBytes       int          `json:"data_bytes"`
	SNRdB           float64      `json:"snr_db"`
	CFOJitterHz     float64      `json:"cfo_jitter_hz"`
	SFOppm          float64      `json:"sfo_ppm"`
	GainSpreadDB    float64      `json:"gain_spread_db"`
	Sweep           []densityRow `json:"sweep"`
}

// densityRow is one sweep point: the aggregate shape of a
// medium.Report without the per-sender breakdown (1024 rows of
// per-sender stats would dominate the artifact without adding to the
// density curves).
type densityRow struct {
	Senders              int     `json:"senders"`
	OfferedLoadPerSender float64 `json:"offered_load_per_sender"`
	OfferedLoadTotal     float64 `json:"offered_load_total"`
	DurationSec          float64 `json:"duration_sec"`
	Sent                 int     `json:"sent"`
	Delivered            int     `json:"delivered"`
	Collisions           int     `json:"collisions"`
	GoodputBps           float64 `json:"goodput_bps"`
	CollisionRate        float64 `json:"collision_rate"`
	DeliveryRate         float64 `json:"delivery_rate"`
	PeakOverlap          int     `json:"peak_overlap"`
	PeakWindowSamples    int     `json:"peak_window_samples"`
}

// runDensityBench sweeps the event-driven medium engine over the given
// sender populations at a fixed per-sender offered load and writes the
// density curves to outPath.
func runDensityBench(seed int64, frames int, gap float64, widths []int, outPath string) error {
	cfg := medium.Defaults()
	cfg.Seed = seed
	cfg.FramesPerSender = frames
	cfg.MeanGapAirtimes = gap
	cfg.CFOJitterHz = 20e3
	cfg.SFOppm = 10
	cfg.GainSpreadDB = 3

	art := densityArtifact{
		Benchmark:       "density-shared-medium",
		Seed:            seed,
		FramesPerSender: frames,
		MeanGapAirtimes: gap,
		DataBytes:       cfg.DataBytes,
		SNRdB:           cfg.SNRdB,
		CFOJitterHz:     cfg.CFOJitterHz,
		SFOppm:          cfg.SFOppm,
		GainSpreadDB:    cfg.GainSpreadDB,
	}
	fmt.Printf("density shared-medium bench: %d frames/sender, mean gap %.1f airtimes (load %.2f/sender)\n",
		frames, gap, cfg.OfferedLoadPerSender())
	start := time.Now()
	for _, n := range widths {
		c := cfg
		c.Senders = n
		t0 := time.Now()
		rep, err := link.RunMedium(c, nil)
		if err != nil {
			return fmt.Errorf("N=%d: %w", n, err)
		}
		sent := rep.Senders * rep.FramesPerSender
		art.Sweep = append(art.Sweep, densityRow{
			Senders:              rep.Senders,
			OfferedLoadPerSender: rep.OfferedLoadPerSender,
			OfferedLoadTotal:     rep.OfferedLoadPerSender * float64(rep.Senders),
			DurationSec:          rep.DurationSec,
			Sent:                 sent,
			Delivered:            rep.Delivered,
			Collisions:           rep.Collisions,
			GoodputBps:           rep.GoodputBps,
			CollisionRate:        rep.CollisionRate,
			DeliveryRate:         rep.DeliveryRate,
			PeakOverlap:          rep.PeakOverlap,
			PeakWindowSamples:    rep.PeakWindowSamples,
		})
		fmt.Printf("  N=%4d: %5d/%5d delivered, goodput %8.0f bps, collisions %5.1f%%, peak overlap %3d (%.2fs air, %v wall)\n",
			n, rep.Delivered, sent, rep.GoodputBps, rep.CollisionRate*100,
			rep.PeakOverlap, rep.DurationSec, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Printf("  [%v]\n", time.Since(start).Round(time.Millisecond))
	if wrote, err := cli.WriteJSON(outPath, art); err != nil {
		return err
	} else if wrote {
		fmt.Printf("  wrote %s\n", outPath)
	}
	return nil
}
