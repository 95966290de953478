package link

import (
	"fmt"

	"symbee/internal/core"
	"symbee/internal/medium"
	"symbee/internal/wifi"
)

// RunMedium drives one event-driven shared-medium scenario end-to-end:
// a medium.Engine synthesizes the capture chunk-by-chunk into a
// streaming Stack, and decoded frames are credited back to
// their transmissions through the payload identity bytes. The engine
// renders on every core, but the stack sees every chunk, in order, on
// the calling goroutine. The run is deterministic in cfg.Seed, whatever
// GOMAXPROCS; m, when non-nil, instruments the receive stack.
func RunMedium(cfg medium.Config, m *Metrics) (*medium.Report, error) {
	eng, err := medium.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	dec, err := core.NewDecoder(cfg.Params, wifi.CanonicalCompensation)
	if err != nil {
		return nil, fmt.Errorf("link: %w", err)
	}
	st, err := NewStreaming(dec, 0, m)
	if err != nil {
		return nil, err
	}
	sink := &mediumSink{st: st, eng: eng, wideID: cfg.DataBytes >= 3}
	return eng.Run(sink)
}

// mediumSink adapts a streaming Stack to the engine's Sink contract:
// every synthesized chunk is pushed as IQ, and each decoded frame is
// matched back to its transmission by the identity bytes (Data[0] low,
// Data[2] high when the payload is wide enough).
type mediumSink struct {
	st     *Stack
	eng    *medium.Engine
	wideID bool
}

func (s *mediumSink) PushChunk(iq []complex128) error {
	if err := s.st.PushIQ(iq); err != nil {
		return err
	}
	s.match()
	return nil
}

func (s *mediumSink) Flush() error {
	if err := s.st.Flush(); err != nil {
		return err
	}
	s.match()
	return nil
}

func (s *mediumSink) match() {
	for _, ev := range s.st.Drain() {
		if ev.Kind != core.EventFrame || len(ev.Frame.Data) == 0 {
			continue
		}
		sender := int(ev.Frame.Data[0])
		if s.wideID && len(ev.Frame.Data) > 2 {
			sender |= int(ev.Frame.Data[2]) << 8
		}
		s.eng.MarkDecoded(sender, int(ev.Frame.Seq))
	}
}
