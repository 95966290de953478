package medium

import (
	"math"
	"math/rand"

	"symbee/internal/channel"
	"symbee/internal/dsp"
	"symbee/internal/splitmix"
)

// senderSource is one sender's lazily-advanced schedule: its private
// RNG stream has drawn the per-sender impairments and exactly the gaps
// needed to place the next pending frame — never the whole schedule.
// The draw order (CFO, SFO, gain, then one exponential gap per frame)
// matches the dense reference implementation, so a source replayed to
// exhaustion consumes its stream identically.
type senderSource struct {
	id  int
	rng *rand.Rand
	// cfoHz/sfoPPM/gain are the sender's fixed impairments.
	cfoHz  float64
	sfoPPM float64
	gain   complex128
	// meanGapAirtimes scales the exponential idle draws.
	meanGapAirtimes float64
	// airtime is the constant per-frame signal length in samples.
	airtime int
	// nextSeq/nextStart describe the pending frame; frames is the
	// total budget.
	nextSeq   int
	nextStart int
	frames    int
}

// newSenderSource derives sender id's stream and draws its impairments
// plus the idle gap in front of its first frame (so sender 0 does not
// always open the capture).
func newSenderSource(cfg Config, id, airtime int) *senderSource {
	rng := splitmix.New(cfg.Seed, id)
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
	s := &senderSource{
		id:              id,
		rng:             rng,
		cfoHz:           cfo,
		sfoPPM:          sfo,
		gain:            complex(math.Sqrt(dsp.FromDB(snr)), 0),
		meanGapAirtimes: cfg.MeanGapAirtimes,
		airtime:         airtime,
		frames:          cfg.FramesPerSender,
	}
	s.nextStart = s.drawGap()
	return s
}

// drawGap draws one exponential idle gap in samples. The expression
// mirrors the dense reference exactly (same association order) so the
// float result is bit-identical.
func (s *senderSource) drawGap() int {
	return int(s.rng.ExpFloat64() * s.meanGapAirtimes * float64(s.airtime))
}

// advance consumes the pending frame and draws the gap in front of the
// next one; it reports whether the sender has frames left.
func (s *senderSource) advance() bool {
	end := s.nextStart + s.airtime
	s.nextSeq++
	if s.nextSeq >= s.frames {
		return false
	}
	s.nextStart = end + s.drawGap()
	return true
}

// eventQueue is a container/heap min-heap of sender sources ordered by
// next transmission start, ties by sender id: the dense reference's
// sort order, which the renderer's mixing order must reproduce. The
// (start, id) keys are unique, so the pop order is fully determined.
type eventQueue []*senderSource

func (q eventQueue) Len() int      { return len(q) }
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*senderSource)) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].nextStart != q[j].nextStart {
		return q[i].nextStart < q[j].nextStart
	}
	return q[i].id < q[j].id
}

func (q *eventQueue) Pop() any {
	old := *q
	last := len(old) - 1
	s := old[last]
	old[last] = nil
	*q = old[:last]
	return s
}
