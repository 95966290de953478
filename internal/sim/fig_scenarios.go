package sim

import (
	"math/rand"

	"symbee/internal/channel"
	"symbee/internal/core"
)

// scenarioDistances is the evaluation geometry of Figs. 13-14.
var scenarioDistances = []float64{5, 10, 15, 20, 25}

func runScenarioPoint(opts Options, sc channel.Scenario, distance, txPowerDBm float64, walls, packets int) (*LinkStats, error) {
	p := core.Params20()
	return Run(RunSpec{
		Params:  p,
		Bits:    AlternatingBits(100), // 50 repeated '01' per packet (§VIII)
		Packets: packets,
		Seed:    opts.Seed + int64(distance*1000) + int64(walls),
		ConfigFor: func(rng *rand.Rand) channel.Config {
			return sc.Config(p.SampleRate, distance, txPowerDBm, walls, rng)
		},
	})
}

// Fig13Throughput reproduces the six-scenario throughput-vs-distance
// study: 100-bit packets over each scenario preset at 5–25 m.
func Fig13Throughput(opts Options) (*Table, error) {
	t, err := scenarioSweep(opts, true)
	if err != nil {
		return nil, err
	}
	t.Title = "Fig. 13 — Throughput (kbps) vs distance, six scenarios"
	t.Note = "workload: 100 pkt-equivalents of 50×'01' bits at 0 dBm; raw rate 31.25 kbps"
	return t, nil
}

// Fig14BER reproduces the six-scenario BER-vs-distance study.
func Fig14BER(opts Options) (*Table, error) {
	t, err := scenarioSweep(opts, false)
	if err != nil {
		return nil, err
	}
	t.Title = "Fig. 14 — Bit error rate vs distance, six scenarios"
	t.Note = "BER over captured packets"
	return t, nil
}

func scenarioSweep(opts Options, throughput bool) (*Table, error) {
	packets := opts.packets(60)
	t := &Table{Columns: []string{"scenario", "5 m", "10 m", "15 m", "20 m", "25 m"}}
	for _, sc := range channel.Presets() {
		row := make([]any, 0, len(scenarioDistances)+1)
		row = append(row, sc.Name)
		for _, d := range scenarioDistances {
			stats, err := runScenarioPoint(opts, sc, d, 0, 0, packets)
			if err != nil {
				return nil, err
			}
			if throughput {
				row = append(row, stats.Throughput(core.Params20())/1000)
			} else {
				row = append(row, stats.BER())
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig18NLOS reproduces the none-line-of-sight office study: four sender
// positions with different distances and wall counts (Fig. 18). S2 is
// farther than S3 but sees fewer walls and wins — the paper's point.
func Fig18NLOS(opts Options) (*Table, error) {
	packets := opts.packets(80)
	sc, err := channel.ByName(channel.Office)
	if err != nil {
		return nil, err
	}
	positions := []struct {
		name     string
		distance float64
		walls    int
	}{
		{"S1 (corridor, 6 m)", 6, 0},
		{"S2 (room, 9 m, 1 wall)", 9, 1},
		{"S3 (room, 8 m, 2 walls)", 8, 2},
		{"S4 (room, 10 m, 2 walls)", 10, 2},
	}
	t := &Table{
		Title:   "Fig. 18 — NLOS office: throughput per sender position",
		Note:    "S3 is closer than S2 but passes more walls, so S2 outperforms it",
		Columns: []string{"position", "mean SNR (dB)", "capture", "BER", "throughput (kbps)"},
	}
	for _, pos := range positions {
		stats, err := runScenarioPoint(opts, sc, pos.distance, 0, pos.walls, packets)
		if err != nil {
			return nil, err
		}
		t.AddRow(pos.name, stats.MeanSNR, stats.CaptureRate(), stats.BER(),
			stats.Throughput(core.Params20())/1000)
	}
	return t, nil
}

// Fig19TxPower reproduces the transmission-power study: BER and mean
// SNR at 5 m for TX power −15…0 dBm, in the midnight office (indoor
// multipath, no WiFi) versus outdoors.
func Fig19TxPower(opts Options) (*Table, error) {
	packets := opts.packets(60)
	office, err := channel.ByName(channel.OfficeMidnight)
	if err != nil {
		return nil, err
	}
	outdoor, err := channel.ByName(channel.Outdoor)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Fig. 19 — Impact of TX power (5 m link)",
		Note:    "indoor multipath costs SNR relative to outdoor at equal TX power",
		Columns: []string{"TX power (dBm)", "office SNR (dB)", "office BER", "outdoor SNR (dB)", "outdoor BER"},
	}
	for _, pw := range []float64{-15, -10, -5, 0} {
		in, err := runScenarioPoint(opts, office, 5, pw, 0, packets)
		if err != nil {
			return nil, err
		}
		out, err := runScenarioPoint(opts, outdoor, 5, pw, 0, packets)
		if err != nil {
			return nil, err
		}
		t.AddRow(pw, in.MeanSNR, in.BER(), out.MeanSNR, out.BER())
	}
	return t, nil
}

// Fig23Mobility reproduces the track-and-field mobility study: BER for
// a sender carried at walking, running and cycling speed past the
// receiver (Fig. 23).
func Fig23Mobility(opts Options) (*Table, error) {
	packets := opts.packets(80)
	sc, err := channel.ByName(channel.Outdoor)
	if err != nil {
		return nil, err
	}
	speeds := []struct {
		label string
		mph   float64
		mps   float64
	}{
		{"walking", 3.4, 1.52},
		{"running", 5.3, 2.37},
		{"cycling", 9.3, 4.16},
	}
	p := core.Params20()
	t := &Table{
		Title:   "Fig. 23 — Mobility: BER vs carrier speed (track & field)",
		Note:    "Doppler fading plus body/bag blockage; static outdoor BER is the baseline",
		Columns: []string{"speed", "mph", "BER", "capture"},
	}
	const distance = 18
	for _, sp := range speeds {
		mob := channel.MobilityPreset(sp.mps)
		stats, err := Run(RunSpec{
			Params:  p,
			Bits:    AlternatingBits(100),
			Packets: packets,
			Seed:    opts.Seed + int64(sp.mps*100),
			ConfigFor: func(rng *rand.Rand) channel.Config {
				cfg := sc.Config(p.SampleRate, distance, 0, 0, rng)
				cfg.BlockFading = false // mobility track supplies fading
				cfg.Mobility = &mob
				return cfg
			},
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(sp.label, sp.mph, stats.BER(), stats.CaptureRate())
	}
	return t, nil
}
