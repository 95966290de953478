package ctc

import (
	"errors"
	"fmt"
)

// EMF embeds information in the energy pattern of existing traffic:
// time is divided into frames of SlotsPerFrame slots; the presence or
// absence of a packet in each data slot encodes one bit, and a marker
// packet in slot 0 delimits the frame. This reproduces the
// concurrent-flows idea of EMF at the energy-sensing level; with 10 ms
// frames carrying 4 data bits the rate is 400 bps.
type EMF struct {
	// SlotDuration is one slot in seconds.
	SlotDuration float64
	// SlotsPerFrame includes the marker slot.
	SlotsPerFrame int
	// PacketDuration is the airtime of one packet within a slot.
	PacketDuration float64
}

// NewEMF returns EMF at a 400 bps operating point.
func NewEMF() *EMF {
	return &EMF{
		SlotDuration:   2e-3,
		SlotsPerFrame:  5, // 1 marker + 4 data
		PacketDuration: 576e-6,
	}
}

// Name implements Scheme.
func (e *EMF) Name() string { return "EMF" }

// NominalRate implements Scheme.
func (e *EMF) NominalRate() float64 {
	return float64(e.SlotsPerFrame-1) / (e.SlotDuration * float64(e.SlotsPerFrame))
}

// errEMFPoint rejects unusable EMF operating points.
var errEMFPoint = errors.New("ctc: invalid EMF operating point")

// Validate implements Scheme.
func (e *EMF) Validate() error {
	switch {
	case !finite(e.SlotDuration, e.PacketDuration) || e.SlotDuration <= 0 || e.PacketDuration <= 0:
		return fmt.Errorf("%w: slot %v or packet %v not positive and finite",
			errEMFPoint, e.SlotDuration, e.PacketDuration)
	case e.SlotsPerFrame < 2:
		return fmt.Errorf("%w: SlotsPerFrame %d leaves no data slots", errEMFPoint, e.SlotsPerFrame)
	case e.PacketDuration > e.SlotDuration:
		return fmt.Errorf("%w: packet %v overruns slot %v", errEMFPoint, e.PacketDuration, e.SlotDuration)
	}
	return nil
}

// Occupancy implements Scheme: whole frames, one marker packet each and
// the balanced-data expectation of half the data slots filled.
func (e *EMF) Occupancy(nBits int) (wall, air float64, err error) {
	if err := e.Validate(); err != nil {
		return 0, 0, err
	}
	if nBits <= 0 {
		return 0, 0, fmt.Errorf("%w: %d", errNBits, nBits)
	}
	dataSlots := e.SlotsPerFrame - 1
	frames := (nBits + dataSlots - 1) / dataSlots
	wall = float64(frames) * e.SlotDuration * float64(e.SlotsPerFrame)
	air = float64(frames) * e.PacketDuration * (1 + float64(dataSlots)/2)
	return wall, air, nil
}

// Encode implements Scheme.
func (e *EMF) Encode(m *Medium, bits []byte, start, snrDB float64) (float64, error) {
	if err := e.Validate(); err != nil {
		return 0, err
	}
	dataSlots := e.SlotsPerFrame - 1
	frame := 0
	for i := 0; i < len(bits); i += dataSlots {
		base := start + float64(frame)*e.SlotDuration*float64(e.SlotsPerFrame)
		if base+float64(e.SlotsPerFrame)*e.SlotDuration > m.Duration() {
			return 0, fmt.Errorf("ctc: medium too short for EMF encoding")
		}
		m.AddBurst(base, e.PacketDuration, snrDB) // marker
		for j := 0; j < dataSlots; j++ {
			if i+j < len(bits) && bits[i+j] == 1 {
				m.AddBurst(base+float64(j+1)*e.SlotDuration, e.PacketDuration, snrDB)
			}
		}
		frame++
	}
	return float64(frame) * e.SlotDuration * float64(e.SlotsPerFrame), nil
}

// Decode implements Scheme: the first detected burst anchors the slot
// grid; each data slot decodes 1 when its energy rises above the
// midpoint between noise and a packet.
func (e *EMF) Decode(m *Medium, nBits int) ([]byte, error) {
	bursts := m.DetectBursts(6, e.PacketDuration/2, e.PacketDuration/2)
	if len(bursts) == 0 {
		return nil, nil
	}
	base := bursts[0].Start
	dataSlots := e.SlotsPerFrame - 1
	bits := make([]byte, 0, nBits)
	frameLen := e.SlotDuration * float64(e.SlotsPerFrame)
	for frame := 0; len(bits) < nBits; frame++ {
		fb := base + float64(frame)*frameLen
		if fb+frameLen > m.Duration() {
			break
		}
		for j := 0; j < dataSlots && len(bits) < nBits; j++ {
			slot := fb + float64(j+1)*e.SlotDuration
			if m.MeanRSSI(slot, e.PacketDuration) > 2.5 {
				bits = append(bits, 1)
			} else {
				bits = append(bits, 0)
			}
		}
	}
	return bits, nil
}
