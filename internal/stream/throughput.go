package stream

import (
	"symbee/internal/core"
	"symbee/internal/link"
)

// ThroughputReport summarizes one single-stream replay measurement.
type ThroughputReport struct {
	// Samples is the number of IQ samples pushed.
	Samples uint64 `json:"samples"`
	// Frames and Errors count the decode outcomes over the replay.
	Frames uint64 `json:"frames"`
	Errors uint64 `json:"errors"`
	// Seconds is the wall-clock processing time.
	Seconds float64 `json:"seconds"`
	// SamplesPerSec is the sustained ingest rate.
	SamplesPerSec float64 `json:"samples_per_sec"`
	// ChunkSize is the chunk size the replay used.
	ChunkSize int `json:"chunk_size"`
	// RealtimeX is SamplesPerSec divided by the parameter set's sample
	// rate: ≥ 1 means the pipeline keeps up with a live radio.
	RealtimeX float64 `json:"realtime_x"`
}

// MeasureThroughput replays the IQ capture through one uninstrumented
// streaming stack in chunks of the given size, looping the capture until at
// least minSamples have been pushed, and reports the sustained rate.
// It is the measurement backing BenchmarkStreamThroughput and the
// stream mode of cmd/symbeebench.
func MeasureThroughput(p core.Params, compensation float64, iq []complex128, chunk int, minSamples uint64) (ThroughputReport, error) {
	d, err := core.NewDecoder(p, compensation)
	if err != nil {
		return ThroughputReport{}, err
	}
	r, err := link.NewStreaming(d, 0, nil)
	if err != nil {
		return ThroughputReport{}, err
	}
	if chunk <= 0 {
		chunk = 4096
	}
	rep := ThroughputReport{ChunkSize: chunk}
	start := wallNow()
	for rep.Samples < minSamples {
		for off := 0; off < len(iq); off += chunk {
			end := off + chunk
			if end > len(iq) {
				end = len(iq)
			}
			if err := r.PushIQ(iq[off:end]); err != nil {
				return rep, err
			}
			for _, ev := range r.Drain() {
				switch ev.Kind {
				case core.EventFrame:
					rep.Frames++
				case core.EventDecodeError:
					rep.Errors++
				}
			}
		}
		rep.Samples += uint64(len(iq))
	}
	rep.Seconds = wallNow().Sub(start).Seconds()
	if rep.Seconds > 0 {
		rep.SamplesPerSec = float64(rep.Samples) / rep.Seconds
	}
	if p.SampleRate > 0 {
		rep.RealtimeX = rep.SamplesPerSec / p.SampleRate
	}
	return rep, nil
}
