package core

import (
	"fmt"
	"math"

	"symbee/internal/dsp"
	"symbee/internal/zigbee"
)

// StablePhase is the magnitude of the stable phase difference a SymBee
// codeword produces at the idle listening: 4π/5 (§IV-B).
const StablePhase = 4 * math.Pi / 5

// Decoding errors (ErrNoPreamble, ErrBadVersion, ErrCRC/ErrChecksum,
// ErrTruncated) are defined in errors.go.

// Decoder turns WiFi idle-listening phase streams back into SymBee bits
// and frames.
type Decoder struct {
	p Params
	// Compensation is added to every phase before decoding to undo the
	// ZigBee/WiFi channel frequency offset; wifi.CanonicalCompensation
	// (+4π/5) for any real channel pair, 0 for a baseband-aligned
	// capture (Appendix B).
	Compensation float64
	// CaptureThreshold is the minimum windowed mean of fold sums that
	// declares a preamble. The default is five standard deviations of
	// the signal-free fold noise floor (≈2.0 at 20 Msps, ≈1.4 at
	// 40 Msps, where the doubled window halves the floor's σ): deep
	// enough into the noise tail to make false captures rare, yet well
	// below the ideal preamble magnitude of PreambleBits·4π/5 ≈ 10.05,
	// and above anything the ZigBee synchronization header can fold to
	// (its period-matched pattern is capped near ±π/10 over most of the
	// window). See the fold-threshold ablation bench.
	CaptureThreshold float64

	// template is the ideal one-period phase profile of the bit-0
	// codeword (byte 0x67 in a codeword stream), used as a matched
	// filter to pin the preamble anchor: windows one period before the
	// true preamble mix in the ZigBee PPDU header and correlate
	// measurably worse, even for PHR bytes that resemble codewords.
	template []float64
	// templateRunOffset is the index within template where the stable
	// run begins (anchors point at stable-run starts).
	templateRunOffset int
}

// DefaultCaptureThreshold returns the default preamble detection
// threshold for a parameter set: five standard deviations of the
// fold-window noise floor. Phases of pure noise are uniform on (−π, π]
// (σ = π/√3); a fold window averages PreambleBits·StableLen of them.
func DefaultCaptureThreshold(p Params) float64 {
	sigmaFloor := math.Pi / math.Sqrt(3) * math.Sqrt(float64(PreambleBits)) / math.Sqrt(float64(p.StableLen))
	return 5 * sigmaFloor
}

// NewDecoder returns a decoder for the given parameters. A NaN or
// infinite compensation reports ErrBadCompensation (wrapped); any finite
// value is accepted.
func NewDecoder(p Params, compensation float64) (*Decoder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if math.IsNaN(compensation) || math.IsInf(compensation, 0) {
		return nil, fmt.Errorf("%w: %v", ErrBadCompensation, compensation)
	}
	tmpl, runOffset, err := codewordTemplate(p)
	if err != nil {
		return nil, err
	}
	return &Decoder{
		p:                 p,
		Compensation:      compensation,
		CaptureThreshold:  DefaultCaptureThreshold(p),
		template:          tmpl,
		templateRunOffset: runOffset,
	}, nil
}

// codewordTemplate synthesizes the ideal phase profile of one bit-0
// period: the middle period of a noiseless 0x67 codeword stream.
func codewordTemplate(p Params) ([]float64, int, error) {
	mod, err := zigbee.NewModulator(p.SampleRate)
	if err != nil {
		return nil, 0, fmt.Errorf("core: template modulator: %w", err)
	}
	sig := mod.ModulateBytes([]byte{Bit0Byte, Bit0Byte, Bit0Byte}, zigbee.OrderMSBFirst)
	phases := dsp.PhaseDiffStream(sig, p.Lag)
	tmpl := make([]float64, p.BitPeriod)
	copy(tmpl, phases[p.BitPeriod:2*p.BitPeriod])
	start, _ := dsp.LongestStableRun(tmpl, 0.05)
	return tmpl, start, nil
}

// Params returns the decoder's parameter set.
func (d *Decoder) Params() Params { return d.p }

// prepare applies CFO compensation to a private copy (the input is
// never modified).
func (d *Decoder) prepare(phases []float64) []float64 {
	if d.Compensation == 0 {
		return phases
	}
	out := make([]float64, len(phases))
	copy(out, phases)
	return dsp.CompensatePhases(out, d.Compensation)
}

// DetectedBit is one bit found by unsynchronized decoding, anchored at
// the phase-stream index where its stable run begins.
type DetectedBit struct {
	Bit byte
	Pos int
}

// DecodeUnsync scans the phase stream with a StableLen window and emits
// a bit whenever at least StableLen−Tau values share a sign (§IV-C):
// nonnegative runs are bit 0 ((6,7) cross-observes at +4π/5) and
// negative runs bit 1. After each detection the scan jumps one bit
// period forward, since at most one SymBee bit exists per period.
func (d *Decoder) DecodeUnsync(phases []float64) []DetectedBit {
	phases = d.prepare(phases)
	var out []DetectedBit
	// StableLen is positive for every decoder built through NewDecoder
	// (Params.Validate), so the window error cannot occur here.
	counter, err := dsp.NewMovingSignCounter(d.p.StableLen)
	if err != nil {
		return nil
	}
	need := d.p.StableLen - d.p.Tau
	i := 0
	for i < len(phases) {
		full, neg, nonneg := counter.Push(phases[i])
		i++
		if !full {
			continue
		}
		var bit byte
		switch {
		case nonneg >= need:
			bit = 0
		case neg >= need:
			bit = 1
		default:
			continue
		}
		anchor := i - d.p.StableLen
		out = append(out, DetectedBit{Bit: bit, Pos: anchor})
		// Skip to where the next bit's stable run can start.
		i = anchor + d.p.BitPeriod
		counter.Reset()
	}
	return out
}

// CapturePreamble locates the SymBee preamble (§V): the phase stream is
// folded with period BitPeriod and depth PreambleBits, and the unsync
// detector is applied to the fold sums. It returns the stream index
// where the stable run of the first preamble bit begins. After the
// first hit it keeps scanning for up to one StableLen to refine the
// anchor to the strongest window.
//
// The scan itself is incremental (preambleScanner in scan.go) so that
// the streaming FrameMachine shares it; this batch entry point runs the
// whole capture through one scanner's batched kernel as a flushed
// stream and finishes with the full stream as the template window. As
// for FrameMachine.PushChunk, at compensation 0 the phases must lie in
// [−π, π] or be NaN.
func (d *Decoder) CapturePreamble(phases []float64) (int, error) {
	return d.capturePreamble(d.prepare(phases))
}

func (d *Decoder) capturePreamble(phases []float64) (int, error) {
	sc := d.newPreambleScanner()
	win := phaseWindow{data: phases}
	sc.huntChunk(win, len(phases), true)
	return sc.finish(win)
}

// DecodeSyncBits majority-votes n bits at their known positions: bit k
// occupies phases[anchor+(PreambleBits+k)·BitPeriod ... +StableLen). A
// window with at least TauSync nonnegative values decodes to 0,
// otherwise 1 (§V; sign convention per package doc). anchor is the
// value returned by CapturePreamble.
func (d *Decoder) DecodeSyncBits(phases []float64, anchor, n int) ([]byte, error) {
	phases = d.prepare(phases)
	return d.decodeSyncBits(phases, anchor, n)
}

func (d *Decoder) decodeSyncBits(phases []float64, anchor, n int) ([]byte, error) {
	return d.decodeSyncBitsWin(phaseWindow{data: phases}, anchor, n, nil)
}

// SyncBitMargins reports, for each of n bits, the number of nonnegative
// values in its stable window — the x-axis of the paper's constellation
// diagram (Fig. 17).
func (d *Decoder) SyncBitMargins(phases []float64, anchor, n int) ([]int, error) {
	phases = d.prepare(phases)
	margins := make([]int, n)
	for k := 0; k < n; k++ {
		start := anchor + (PreambleBits+k)*d.p.BitPeriod
		end := start + d.p.StableLen
		if start < 0 || end > len(phases) {
			return margins[:k], fmt.Errorf("%w: bit %d", ErrTruncated, k)
		}
		_, nonneg := dsp.SignCounts(phases[start:end])
		margins[k] = nonneg
	}
	return margins, nil
}

// DecodeBits captures the preamble and then sync-decodes n raw bits.
func (d *Decoder) DecodeBits(phases []float64, n int) ([]byte, error) {
	prepared := d.prepare(phases)
	anchor, err := d.capturePreamble(prepared)
	if err != nil {
		return nil, err
	}
	return d.decodeSyncBits(prepared, anchor, n)
}

// DecodeFrame captures the preamble, reads the frame header to learn the
// data length, decodes the remaining bits and validates the checksum.
// If parsing fails at the captured anchor it retries one bit period to
// either side, recovering captures that locked on a period off.
//
// Batch decoding is one big chunk through the streaming FrameMachine:
// the capture is pushed whole, the stream is flushed, and the first
// terminal event is the result. The machine's decision points fire at
// the same stream positions regardless of chunking, so this is
// bit-identical to feeding the capture sample by sample.
func (d *Decoder) DecodeFrame(phases []float64) (*Frame, error) {
	m := d.newMachine(0)
	if err := m.PushChunk(phases); err != nil {
		return nil, err
	}
	m.Flush()
	for _, ev := range m.Events() {
		switch ev.Kind {
		case EventFrame:
			return ev.Frame, nil
		case EventDecodeError:
			return nil, ev.Err
		}
	}
	return nil, ErrNoPreamble
}
