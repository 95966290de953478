package ctc

import (
	"errors"
	"fmt"
	"math"
)

// FreeBee modulates the timing of periodic beacons: beacon k is shifted
// from its nominal grid position by s·Granularity where the shift index
// s encodes BitsPerBeacon bits. A leading unshifted sync beacon anchors
// the grid at the receiver (standing in for the long-term grid tracking
// of the original system). With the standard 102.4 ms beacon interval,
// 16 shift positions and 2× repetition for reliability, the rate is
// ≈20 bps — the published FreeBee ballpark.
type FreeBee struct {
	// Interval is the beacon period in seconds.
	Interval float64
	// Granularity is the timing shift unit in seconds.
	Granularity float64
	// BitsPerBeacon is log2 of the number of shift positions.
	BitsPerBeacon int
	// Repeat sends every symbol this many times (loss protection).
	Repeat int
	// BeaconDuration is the beacon airtime.
	BeaconDuration float64

	name string
}

// NewFreeBee returns FreeBee at its published operating point.
func NewFreeBee() *FreeBee {
	return &FreeBee{
		Interval:       102.4e-3,
		Granularity:    1e-3,
		BitsPerBeacon:  4,
		Repeat:         2,
		BeaconDuration: 576e-6,
		name:           "FreeBee",
	}
}

// NewAFreeBee returns the aggregated variant: finer granularity, one
// more bit per beacon and no repetition, trading robustness for rate.
func NewAFreeBee() *FreeBee {
	return &FreeBee{
		Interval:       102.4e-3,
		Granularity:    0.5e-3,
		BitsPerBeacon:  5,
		Repeat:         1,
		BeaconDuration: 576e-6,
		name:           "A-FreeBee",
	}
}

// Name implements Scheme.
func (f *FreeBee) Name() string { return f.name }

// NominalRate implements Scheme.
func (f *FreeBee) NominalRate() float64 {
	return float64(f.BitsPerBeacon) / (f.Interval * float64(f.Repeat))
}

func (f *FreeBee) positions() int { return 1 << f.BitsPerBeacon }

// FreeBee operating-point errors.
var (
	errFreeBeePoint = errors.New("ctc: invalid FreeBee operating point")
	errFreeBeeShift = errors.New("ctc: FreeBee shifts exceed half the beacon interval")
)

// Validate implements Scheme.
func (f *FreeBee) Validate() error {
	switch {
	case !finite(f.Interval, f.Granularity, f.BeaconDuration) ||
		f.Interval <= 0 || f.Granularity <= 0 || f.BeaconDuration <= 0:
		return fmt.Errorf("%w: interval %v, granularity %v or beacon %v not positive and finite",
			errFreeBeePoint, f.Interval, f.Granularity, f.BeaconDuration)
	case f.BitsPerBeacon < 1 || f.BitsPerBeacon > 16:
		return fmt.Errorf("%w: BitsPerBeacon %d", errFreeBeePoint, f.BitsPerBeacon)
	case f.Repeat < 1:
		return fmt.Errorf("%w: Repeat %d", errFreeBeePoint, f.Repeat)
	case f.Granularity*float64(f.positions()) > f.Interval/2:
		return fmt.Errorf("%w: %d positions × %v s vs %v s interval",
			errFreeBeeShift, f.positions(), f.Granularity, f.Interval)
	}
	return nil
}

// Occupancy implements Scheme: one sync beacon plus Repeat copies of
// each data beacon, strung along the beacon grid.
func (f *FreeBee) Occupancy(nBits int) (wall, air float64, err error) {
	if err := f.Validate(); err != nil {
		return 0, 0, err
	}
	if nBits <= 0 {
		return 0, 0, fmt.Errorf("%w: %d", errNBits, nBits)
	}
	syms := (nBits + f.BitsPerBeacon - 1) / f.BitsPerBeacon
	beacons := 1 + syms*f.Repeat
	return float64(beacons) * f.Interval, float64(beacons) * f.BeaconDuration, nil
}

// Encode implements Scheme: a sync beacon followed by the data beacons,
// each displaced from the grid by its shift index.
func (f *FreeBee) Encode(m *Medium, bits []byte, start, snrDB float64) (float64, error) {
	if err := f.Validate(); err != nil {
		return 0, err
	}
	place := func(beacon int, shift int) error {
		t := start + float64(beacon)*f.Interval + float64(shift)*f.Granularity
		if t+f.BeaconDuration > m.Duration() {
			return fmt.Errorf("ctc: medium too short for FreeBee encoding")
		}
		m.AddBurst(t, f.BeaconDuration, snrDB)
		return nil
	}
	if err := place(0, 0); err != nil { // sync beacon
		return 0, err
	}
	beacon := 1
	for i := 0; i < len(bits); i += f.BitsPerBeacon {
		shift := 0
		for j := 0; j < f.BitsPerBeacon; j++ {
			shift <<= 1
			if i+j < len(bits) && bits[i+j] == 1 {
				shift |= 1
			}
		}
		for r := 0; r < f.Repeat; r++ {
			if err := place(beacon, shift); err != nil {
				return 0, err
			}
			beacon++
		}
	}
	return float64(beacon) * f.Interval, nil
}

// Decode implements Scheme: arrivals are mapped onto the grid anchored
// at the sync beacon; each data beacon's displacement yields its shift
// index, taking the first surviving repetition copy per symbol.
func (f *FreeBee) Decode(m *Medium, nBits int) ([]byte, error) {
	bursts := m.DetectBursts(6, f.BeaconDuration/2, f.BeaconDuration/2)
	arrivals := make([]float64, 0, len(bursts))
	for _, b := range bursts {
		if b.Duration < 3*f.BeaconDuration {
			arrivals = append(arrivals, b.Start)
		}
	}
	if len(arrivals) == 0 {
		return nil, nil
	}
	base := arrivals[0] // sync beacon
	shifts := map[int]int{}
	maxSym := -1
	for _, t := range arrivals[1:] {
		k := int(math.Round((t - base) / f.Interval))
		if k < 1 {
			continue
		}
		sym := (k - 1) / f.Repeat
		if _, dup := shifts[sym]; dup {
			continue
		}
		shift := int(math.Round((t - base - float64(k)*f.Interval) / f.Granularity))
		if shift < 0 || shift >= f.positions() {
			continue // outside the shift alphabet: foreign burst
		}
		shifts[sym] = shift
		if sym > maxSym {
			maxSym = sym
		}
	}
	bits := make([]byte, 0, nBits)
	for sym := 0; sym <= maxSym && len(bits) < nBits; sym++ {
		shift := shifts[sym] // missing symbols decode as 0s
		for j := f.BitsPerBeacon - 1; j >= 0 && len(bits) < nBits; j-- {
			bits = append(bits, byte(shift>>j&1))
		}
	}
	return bits, nil
}
