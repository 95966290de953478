package medium

import (
	"container/heap"
	"errors"
	"fmt"

	"math"
	"math/rand"

	"symbee/internal/channel"
	"symbee/internal/core"
	"symbee/internal/splitmix"
	"symbee/internal/zigbee"
)

// Sink consumes the synthesized shared-medium capture chunk-by-chunk
// (internal/link wraps a streaming-preset Stack in one). Run calls it
// from its own goroutine. The chunk slice is the engine's render
// window and is reused: it stays valid until PushChunk returns.
type Sink interface {
	PushChunk(iq []complex128) error
	Flush() error
}

// SenderStats is one sender's delivery accounting.
type SenderStats struct {
	// Sender is the sender's identity (0-based).
	Sender int `json:"sender"`
	// Sent is the number of frames transmitted.
	Sent int `json:"sent"`
	// Delivered is the number of frames the receiver decoded intact.
	Delivered int `json:"delivered"`
	// Collided is the number of transmissions whose airtime overlapped
	// another sender's transmission.
	Collided int `json:"collided"`
	// CollidedDelivered counts collided transmissions that decoded
	// anyway (capture effect under the gain spread).
	CollidedDelivered int `json:"collided_delivered"`
	// DeliveryRate is Delivered/Sent.
	DeliveryRate float64 `json:"delivery_rate"`
	// CollisionRate is Collided/Sent.
	CollisionRate float64 `json:"collision_rate"`
}

// Report is the outcome of one scenario run.
type Report struct {
	// Senders/FramesPerSender/Seed echo the scenario shape.
	Senders         int   `json:"senders"`
	FramesPerSender int   `json:"frames_per_sender"`
	Seed            int64 `json:"seed"`
	// OfferedLoadPerSender is the nominal per-sender airtime duty,
	// 1/(1+MeanGapAirtimes); times Senders it is the total offered load.
	OfferedLoadPerSender float64 `json:"offered_load_per_sender"`
	// DurationSec is the simulated capture length in seconds.
	DurationSec float64 `json:"duration_sec"`
	// AirtimeSamples is one frame's constant airtime in samples.
	AirtimeSamples int `json:"airtime_samples"`
	// TotalSamples is the number of capture samples synthesized.
	TotalSamples int `json:"total_samples"`
	// Delivered is the total number of frames decoded intact.
	Delivered int `json:"delivered"`
	// Collisions is the total number of collided transmissions.
	Collisions int `json:"collisions"`
	// GoodputBps is delivered application data in bits per simulated
	// second.
	GoodputBps float64 `json:"goodput_bps"`
	// CollisionRate is Collisions over total transmissions.
	CollisionRate float64 `json:"collision_rate"`
	// DeliveryRate is Delivered over total transmissions.
	DeliveryRate float64 `json:"delivery_rate"`
	// PeakOverlap is the most transmissions whose airtime overlaps one
	// 4,096-sample chunk of the capture: a function of overlap width,
	// independent of FramesPerSender and capture length. It bounds the
	// renderer's per-transmission state; the renderer holds no
	// waveform, it renders each stretch of an active transmission on
	// demand.
	PeakOverlap int `json:"peak_overlap"`
	// PerSender is each sender's accounting, ordered by sender id.
	PerSender []SenderStats `json:"per_sender"`
}

// Engine run errors.
var (
	errRan     = errors.New("medium: engine already ran")
	errAirtime = errors.New("medium: frame airtime disagrees with schedule airtime")
	errNilSink = errors.New("medium: nil sink")
)

// txState is one transmission's accounting record. Records are tiny
// and kept for the whole run.
type txState struct {
	sender, seq int
	start, end  int
	collide     bool
	decoded     bool
}

// activeTx is a transmission currently overlapping the render window,
// held from admission until the cursor passes its end. It holds what
// renders any stretch of its impaired waveform on demand (synth.go),
// never the waveform itself: the frame's chip stream, the sender's
// impairments and the CFO rotator's state.
type activeTx struct {
	rec   *txState
	chips []byte
	// sfo reports a nonzero clock offset; ratio is then the resampler's
	// source samples per output sample, 1 + sfoPPM·1e-6 (the expression
	// of channel.ApplySFO).
	sfo   bool
	ratio float64
	// live is the number of leading waveform samples the resampler
	// interpolates; the rest of the airtime is its zero tail. It is the
	// whole airtime without SFO.
	live int
	// gain is the real receive amplitude √snr.
	gain float64
	// step and inc are dsp.RotateFrequency's per-sample phase step and
	// phasor increment for the sender's CFO; rot is the rotator's
	// phasor for the first sample of the next render window, written
	// after each window's join.
	step float64
	inc  complex128
	rot  complex128
}

// Engine runs one shared-medium scenario. Build with NewEngine, drive
// with Run, feed decode outcomes back through MarkDecoded. An engine is
// single-run. Run renders each window on every core, but admits
// transmissions, draws the noise and calls the sink on its own
// goroutine, and every other method belongs to that goroutine too.
type Engine struct {
	cfg     Config
	phy     *core.Link
	mod     *zigbee.Modulator
	airtime int
	queue   eventQueue
	noise   *rand.Rand

	records []*txState
	active  []*activeTx

	// Streaming interval-overlap collision state: the running max end
	// and the record that set it (the dense reference's exact rule).
	maxEnd  int
	lastMax *txState

	peakOverlap int
	// pushed is the end of the last chunk pushed into the sink: only a
	// transmission that starts before it is on the air yet.
	pushed int

	ran bool
}

// NewEngine validates cfg, probes the constant per-frame airtime, and
// seeds every sender's schedule source.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Senders are baseband-aligned and carry their own CFO; the
	// receiver compensates the canonical offset as on a real channel.
	phy, err := core.NewLink(cfg.Params, 0)
	if err != nil {
		return nil, fmt.Errorf("medium: %w", err)
	}
	e := &Engine{
		cfg:    cfg,
		phy:    phy,
		mod:    phy.Modulator(),
		maxEnd: -1,
		noise:  splitmix.New(cfg.Seed, splitmix.NoiseStream),
	}
	// Every frame spreads the same payload length, and SFO resampling
	// preserves length, so one chip-stream probe pins the airtime every
	// schedule draw depends on: (chips+1) chip slots.
	probe, err := e.chips(0, 0)
	if err != nil {
		return nil, err
	}
	e.airtime = e.frameSamples(probe)
	for s := 0; s < cfg.Senders; s++ {
		heap.Push(&e.queue, newSenderSource(cfg, s, e.airtime))
	}
	return e, nil
}

// Airtime returns the constant per-frame airtime in samples.
//
//symbee:ignore reach -- bench/gen_test.go compares crowd frame airtimes across seeds with it
func (e *Engine) Airtime() int { return e.airtime }

// Run synthesizes the scenario into sink chunk-by-chunk and returns
// the report. The sink may call MarkDecoded re-entrantly from
// PushChunk/Flush as its receiver emits frames. The capture is
// rendered a window of whole chunks at a time (renderer), then noised
// and pushed chunk by chunk; every worker has exited when Run returns.
func (e *Engine) Run(sink Sink) (*Report, error) {
	if sink == nil {
		return nil, errNilSink
	}
	if e.ran {
		return nil, errRan
	}
	e.ran = true
	r := newRenderer(e.mod, e.cfg.SFOppm)
	defer r.stop()
	win := len(r.window)
	cur := 0
	endAt := -1
	for {
		// Admit every transmission starting inside the next window;
		// admission spreads its chips and may re-queue the sender's
		// next frame.
		for len(e.queue) > 0 && e.queue[0].nextStart < cur+win {
			if err := e.admit(); err != nil {
				return nil, err
			}
		}
		if endAt < 0 && len(e.queue) == 0 {
			// All transmissions known: the capture ends after the last
			// airtime plus the decode-gate pad that forces the final
			// frame's deferred decode (phase stream trails by Lag).
			endAt = e.maxEnd + core.DecodeGateSpan(e.cfg.Params) +
				padSlackPeriods*e.cfg.Params.BitPeriod + e.cfg.Params.Lag
		}
		if endAt >= 0 && cur >= endAt {
			break
		}
		n := win
		if endAt >= 0 && cur+n > endAt {
			n = endAt - cur
		}
		if err := e.push(sink, r.render(n, e.active, cur), cur); err != nil {
			return nil, err
		}
		cur += n
		e.retire(cur)
	}
	if err := sink.Flush(); err != nil {
		return nil, err
	}
	return e.buildReport(cur), nil
}

// push adds unit receiver noise to the rendered window that starts at
// cur and hands it to the sink chunk by chunk. The noise is drawn in
// sample order, two NormFloat64 per sample, so the window does not
// shift the stream, and it is added after every transmission, as the
// dense reference AWGNs its finished capture.
//
//symbee:hotpath
func (e *Engine) push(sink Sink, win []complex128, cur int) error {
	for lo := 0; lo < len(win); lo += chunkSamples {
		buf := win[lo:min(lo+chunkSamples, len(win))]
		channel.AddAWGN(buf, 1, e.noise)
		from := cur + lo
		e.pushed = from + len(buf)
		e.peakOverlap = max(e.peakOverlap, e.overlapping(from, e.pushed))
		if err := sink.PushChunk(buf); err != nil {
			return err
		}
	}
	return nil
}

// overlapping counts the active transmissions whose airtime overlaps
// the samples [lo, hi).
func (e *Engine) overlapping(lo, hi int) int {
	n := 0
	for _, a := range e.active {
		if a.rec.start < hi && a.rec.end > lo {
			n++
		}
	}
	return n
}

// padSlackPeriods is the decode-gate anchor slack in bit periods
// appended after the final transmission (the dense reference in
// internal/link pads by the same amount).
const padSlackPeriods = 12

// admit pops the earliest pending transmission, records it, streams
// the collision bookkeeping, spreads its frame into chips and
// activates it. Admission order is (start, sender) — the dense
// reference's sort.
func (e *Engine) admit() error {
	src := heap.Pop(&e.queue).(*senderSource)
	rec := &txState{
		sender: src.id,
		seq:    src.nextSeq,
		start:  src.nextStart,
		end:    src.nextStart + e.airtime,
	}
	if e.lastMax != nil && rec.start < e.maxEnd {
		rec.collide = true
		e.lastMax.collide = true
	}
	if rec.end > e.maxEnd {
		e.maxEnd = rec.end
		e.lastMax = rec
	}
	e.records = append(e.records, rec)
	chips, err := e.chips(rec.sender, rec.seq)
	if err != nil {
		return err
	}
	if n := e.frameSamples(chips); n != e.airtime {
		return fmt.Errorf("%w: got %d, want %d", errAirtime, n, e.airtime)
	}
	// dsp.RotateFrequency's expressions, so the rotator reproduces
	// channel.ApplyCFO's phasors bit for bit. A zero CFO rotates by
	// exactly 1+0i, which can only flip the sign of a zero.
	step := 2 * math.Pi * src.cfoHz / e.cfg.Params.SampleRate
	a := &activeTx{
		rec:   rec,
		chips: chips,
		sfo:   src.sfoPPM != 0,
		ratio: 1 + src.sfoPPM*1e-6,
		live:  e.airtime,
		gain:  src.gain,
		step:  step,
		inc:   complex(math.Cos(step), math.Sin(step)),
	}
	if a.sfo {
		a.live = resampledLive(a.ratio, e.airtime)
	}
	e.active = append(e.active, a)
	if src.advance() {
		heap.Push(&e.queue, src)
	}
	return nil
}

// chips spreads one frame into its chip stream: identity bytes (low
// id, sequence, high id), SymBee frame encoding, then the ZigBee PPDU
// and spreading of core.Link.PayloadToSignal.
func (e *Engine) chips(sender, seq int) ([]byte, error) {
	data := make([]byte, e.cfg.DataBytes)
	data[0] = byte(sender)
	if e.cfg.DataBytes > 1 {
		data[1] = byte(seq)
	}
	if e.cfg.DataBytes > 2 {
		data[2] = byte(sender >> 8)
	}
	payload, err := core.EncodeFrame(&core.Frame{Seq: byte(seq), Data: data})
	if err != nil {
		return nil, fmt.Errorf("medium: %w", err)
	}
	chips, err := e.phy.PayloadToChips(payload)
	if err != nil {
		return nil, fmt.Errorf("medium: %w", err)
	}
	return chips, nil
}

// frameSamples returns the length of the waveform chips modulate to.
func (e *Engine) frameSamples(chips []byte) int {
	return (len(chips) + 1) * e.mod.SamplesPerSlot()
}

// retire releases every active transmission the cursor has passed (the
// records stay for accounting).
func (e *Engine) retire(cur int) {
	kept := e.active[:0]
	for _, a := range e.active {
		if a.rec.end > cur {
			kept = append(kept, a)
		}
	}
	clear(e.active[len(kept):])
	e.active = kept
}

// MarkDecoded credits a decoded frame to the earliest matching
// not-yet-credited transmission (the dense reference's matching rule)
// and reports whether one matched. Only a transmission that starts
// before the end of the last chunk pushed can match: admission runs a
// window ahead of the sink, and a frame not yet on the air cannot
// have decoded.
func (e *Engine) MarkDecoded(sender, seq int) bool {
	for _, rec := range e.records {
		if rec.start >= e.pushed {
			break // records are in start order
		}
		if rec.sender == sender && rec.seq == seq && !rec.decoded {
			rec.decoded = true
			return true
		}
	}
	return false
}

// buildReport folds the transmission records of a run that
// synthesized totalSamples into the scenario report.
func (e *Engine) buildReport(totalSamples int) *Report {
	per := make([]SenderStats, e.cfg.Senders)
	for i := range per {
		per[i].Sender = i
	}
	delivered, collisions := 0, 0
	for _, rec := range e.records {
		st := &per[rec.sender]
		st.Sent++
		if rec.decoded {
			st.Delivered++
			delivered++
		}
		if rec.collide {
			st.Collided++
			collisions++
			if rec.decoded {
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
	duration := float64(totalSamples) / e.cfg.Params.SampleRate
	total := e.cfg.Senders * e.cfg.FramesPerSender
	return &Report{
		Senders:              e.cfg.Senders,
		FramesPerSender:      e.cfg.FramesPerSender,
		Seed:                 e.cfg.Seed,
		OfferedLoadPerSender: e.cfg.OfferedLoadPerSender(),
		DurationSec:          duration,
		AirtimeSamples:       e.airtime,
		TotalSamples:         totalSamples,
		Delivered:            delivered,
		Collisions:           collisions,
		GoodputBps:           float64(delivered*e.cfg.DataBytes*8) / duration,
		CollisionRate:        float64(collisions) / float64(total),
		DeliveryRate:         float64(delivered) / float64(total),
		PeakOverlap:          e.peakOverlap,
		PerSender:            per,
	}
}
