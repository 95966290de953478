package medium

import (
	"container/heap"
	"errors"
	"fmt"

	"math/rand"

	"symbee/internal/channel"
	"symbee/internal/core"
	"symbee/internal/splitmix"
)

// Sink consumes the synthesized shared-medium capture chunk-by-chunk
// (internal/link wraps a streaming-preset Stack in one). The chunk
// slice is the engine's scratch buffer and is reused: it stays valid
// only until the next PushChunk.
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
	// PeakOverlap is the maximum number of simultaneously-active
	// transmissions the renderer held.
	PeakOverlap int `json:"peak_overlap"`
	// PeakWindowSamples is the maximum total waveform samples held at
	// once — the engine's memory bound, a function of overlap width and
	// airtime, independent of FramesPerSender and capture length.
	PeakWindowSamples int `json:"peak_window_samples"`
	// PerSender is each sender's accounting, ordered by sender id.
	PerSender []SenderStats `json:"per_sender"`
}

// Engine run errors.
var (
	errRan     = errors.New("medium: engine already ran")
	errAirtime = errors.New("medium: synthesized waveform length disagrees with schedule airtime")
	errNilSink = errors.New("medium: nil sink")
)

// txState is one transmission's accounting record. Records are tiny
// and kept for the whole run (the waveform is not).
type txState struct {
	sender, seq int
	start, end  int
	collide     bool
	decoded     bool
}

// activeTx is a transmission currently overlapping the render window:
// the only state whose size scales with airtime, held from admission
// until the cursor passes its end.
type activeTx struct {
	rec  *txState
	sig  []complex128
	gain complex128
}

// Engine runs one shared-medium scenario. Build with NewEngine, drive
// with Run, feed decode outcomes back through MarkDecoded. An engine is
// single-run and single-goroutine.
type Engine struct {
	cfg     Config
	phy     *core.Link
	airtime int
	queue   eventQueue
	noise   *rand.Rand

	records []*txState
	active  []*activeTx

	// scratch is the reused modulation buffer an SFO resample reads
	// from; free holds airtime-length waveform buffers retire handed
	// back, which admission takes before allocating a new one. Both
	// fill lazily during Run.
	scratch []complex128
	free    [][]complex128

	// Streaming interval-overlap collision state: the running max end
	// and the record that set it (the dense reference's exact rule).
	maxEnd  int
	lastMax *txState

	activeSamples int
	peakOverlap   int
	peakWindow    int

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
		maxEnd: -1,
		noise:  splitmix.New(cfg.Seed, splitmix.NoiseStream),
	}
	// Every frame modulates the same payload length, and SFO
	// resampling preserves length, so one probe pins the airtime every
	// schedule draw depends on.
	probe, err := e.waveform(0, 0, 0, 0)
	if err != nil {
		return nil, err
	}
	e.airtime = len(probe)
	for s := 0; s < cfg.Senders; s++ {
		heap.Push(&e.queue, newSenderSource(cfg, s, e.airtime))
	}
	return e, nil
}

// Airtime returns the constant per-frame airtime in samples.
func (e *Engine) Airtime() int { return e.airtime }

// Run synthesizes the scenario into sink chunk-by-chunk and returns
// the report. The sink may call MarkDecoded re-entrantly from
// PushChunk/Flush as its receiver emits frames.
func (e *Engine) Run(sink Sink) (*Report, error) {
	if sink == nil {
		return nil, errNilSink
	}
	if e.ran {
		return nil, errRan
	}
	e.ran = true
	chunk := make([]complex128, e.cfg.ChunkSamples)
	cur := 0
	endAt := -1
	for {
		// Admit every transmission starting inside the next window;
		// admission synthesizes its waveform and may re-queue the
		// sender's next frame.
		for len(e.queue) > 0 && e.queue[0].nextStart < cur+len(chunk) {
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
		n := len(chunk)
		if endAt >= 0 && cur+n > endAt {
			n = endAt - cur
		}
		buf := chunk[:n]
		renderChunk(buf, e.active, cur, e.noise)
		if err := sink.PushChunk(buf); err != nil {
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

// padSlackPeriods is the decode-gate anchor slack in bit periods
// appended after the final transmission (the dense reference in
// internal/link pads by the same amount).
const padSlackPeriods = 12

// admit pops the earliest pending transmission, records it, streams
// the collision bookkeeping, synthesizes its waveform and activates
// it. Admission order is (start, sender) — the dense reference's sort.
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
	sig, err := e.waveform(rec.sender, rec.seq, src.sfoPPM, src.cfoHz)
	if err != nil {
		return err
	}
	if len(sig) != e.airtime {
		return fmt.Errorf("%w: got %d, want %d", errAirtime, len(sig), e.airtime)
	}
	e.active = append(e.active, &activeTx{rec: rec, sig: sig, gain: src.gain})
	e.activeSamples += len(sig)
	if len(e.active) > e.peakOverlap {
		e.peakOverlap = len(e.active)
	}
	if e.activeSamples > e.peakWindow {
		e.peakWindow = e.activeSamples
	}
	if src.advance() {
		heap.Push(&e.queue, src)
	}
	return nil
}

// waveform synthesizes one frame's impaired transmit signal: identity
// bytes (low id, sequence, high id), SymBee frame encoding, ZigBee
// modulation, then the sender's SFO resample and CFO rotation. The
// signal ends up in a buffer from the free list: without SFO it is
// modulated straight into it, with SFO it is modulated into the
// scratch buffer and resampled into it. The CFO rotation is in place.
func (e *Engine) waveform(sender, seq int, sfoPPM, cfoHz float64) ([]complex128, error) {
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
	var sig []complex128
	if sfoPPM == 0 {
		sig, err = e.phy.PayloadToSignalInto(e.take(), payload)
	} else {
		e.scratch, err = e.phy.PayloadToSignalInto(e.scratch, payload)
		sig = channel.ApplySFOInto(e.take(), e.scratch, sfoPPM)
	}
	if err != nil {
		return nil, fmt.Errorf("medium: %w", err)
	}
	if cfoHz != 0 {
		channel.ApplyCFO(sig, cfoHz, e.cfg.Params.SampleRate)
	}
	return sig, nil
}

// take pops a waveform buffer off the free list, or returns nil (the
// synthesis then allocates one) when the list is empty.
func (e *Engine) take() []complex128 {
	n := len(e.free)
	if n == 0 {
		return nil
	}
	buf := e.free[n-1]
	e.free[n-1] = nil
	e.free = e.free[:n-1]
	return buf
}

// retire releases every active transmission the cursor has passed,
// handing its waveform buffer back to the free list (the records stay
// for accounting).
func (e *Engine) retire(cur int) {
	kept := e.active[:0]
	for _, a := range e.active {
		if a.rec.end <= cur {
			e.activeSamples -= len(a.sig)
			e.free = append(e.free, a.sig)
			a.sig = nil
			continue
		}
		kept = append(kept, a)
	}
	for i := len(kept); i < len(e.active); i++ {
		e.active[i] = nil
	}
	e.active = kept
}

// MarkDecoded credits a decoded frame to the earliest matching
// not-yet-credited transmission (the dense reference's matching rule)
// and reports whether one matched.
func (e *Engine) MarkDecoded(sender, seq int) bool {
	for _, rec := range e.records {
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
		PeakWindowSamples:    e.peakWindow,
		PerSender:            per,
	}
}
