package main

import (
	"bufio"
	"encoding/json"
	"io"
	"runtime/metrics"
	"time"
)

// spanID names a span. Spans are recorded from the benchmark's own
// files around calls into each layer's public functions; the program
// itself carries no tracing.
type spanID uint8

const (
	spPass     spanID = iota // one window, transfer or scenario: the traced pass's root
	spFrontend               // dsp.PhaseDiffStreamer.Process
	spHunt                   // FrameMachine chunk that enters and leaves hunting with no event
	spLock                   // FrameMachine chunk that emits a lock
	spSelect                 // FrameMachine chunk inside a lock's refinement span or selection
	spGate                   // FrameMachine chunk waiting for a frame body to arrive
	spDecode                 // FrameMachine chunk that emits a frame or a decode error
	spIngest                 // Pool.Ingest, as the producer sees it
	spSession                // Session.Send
	spSend                   // SimLink.Send
	spDownlink               // SimLink.NextArrival and AckLatency
	spShadow                 // the shadow replay of one sent frame
	spEncode                 // core.EncodeFrame
	spCoded                  // reliable.EncodeCodedFrame and DecodeCodedPhases
	spModulate               // core.Link.PayloadToSignal
	spFaults                 // channel.FaultInjector.Apply
	spPhases                 // core.Link.Phases (the WiFi batch front end)
	spUplink                 // link batch stack Reset/PushPhases/Flush/Drain
	spEngine                 // medium.Engine.Run
	spRx                     // the crowd sink: receive one synthesized chunk
	numSpans
)

var spanNames = [numSpans]string{
	"pass", "dsp.frontend", "core.hunt", "core.lock", "core.select", "core.gate",
	"core.decode", "stream.ingest", "reliable.session", "link.send", "link.downlink",
	"arq.shadow", "core.encode", "reliable.coded", "zigbee.modulate", "channel.faults",
	"wifi.phases", "link.uplink", "medium.engine", "medium.rx",
}

func (id spanID) String() string { return spanNames[id] }

// span is one recorded interval, in nanoseconds since the tracer's
// epoch. Parent is the index of the enclosing span in the same tracer
// (-1 for a root); Req identifies the request (chunk, frame or
// transfer) the span worked for.
type span struct {
	id         spanID
	start, end int64
	parent     int32
	req        int64
}

// spanTotal aggregates every span of one name: self time is a span's
// duration minus the part its child spans cover.
type spanTotal struct {
	n           int
	total, self int64
}

// tracer records spans of one goroutine into a buffer preallocated at
// construction and aggregates them as they end, so the totals stay
// exact even once the buffer is full.
type tracer struct {
	epoch   time.Time
	buf     []span
	dropped int
	open    []openSpan
	totals  [numSpans]spanTotal
	req     int64
}

type openSpan struct {
	start, child int64
	idx          int32 // buffer slot, -1 when the buffer was full
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), buf: make([]span, 0, capacity), open: make([]openSpan, 0, 8)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span; its name is given when it ends, so a chunk can be
// classified by what it turned out to do.
func (t *tracer) begin() {
	s := t.now()
	idx := int32(-1)
	if len(t.buf) < cap(t.buf) {
		parent := int32(-1)
		if n := len(t.open); n > 0 {
			parent = t.open[n-1].idx
		}
		idx = int32(len(t.buf))
		t.buf = append(t.buf, span{start: s, parent: parent, req: t.req})
	} else {
		t.dropped++
	}
	t.open = append(t.open, openSpan{start: s, idx: idx})
}

// end closes the innermost open span under the given name.
func (t *tracer) end(id spanID) {
	e := t.now()
	n := len(t.open) - 1
	o := t.open[n]
	t.open = t.open[:n]
	d := e - o.start
	tt := &t.totals[id]
	tt.n++
	tt.total += d
	tt.self += d - o.child
	if n > 0 {
		t.open[n-1].child += d
	}
	if o.idx >= 0 {
		t.buf[o.idx].id = id
		t.buf[o.idx].end = e
	}
}

// spans is the number of spans ended so far.
func (t *tracer) spans() int {
	n := 0
	for _, tt := range t.totals {
		n += tt.n
	}
	return n
}

// sumTotals adds the totals of several tracers (one per goroutine).
func sumTotals(ts []*tracer) [numSpans]spanTotal {
	var out [numSpans]spanTotal
	for _, t := range ts {
		for i, tt := range t.totals {
			out[i].n += tt.n
			out[i].total += tt.total
			out[i].self += tt.self
		}
	}
	return out
}

// spanCostNS measures what one begin/end pair costs, recording into the
// buffer as a traced run does, so the tracing overhead of a run can be
// printed as spans × cost.
func spanCostNS() float64 {
	const n = 1 << 16
	t := newTracer(n + 1)
	t.begin()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.begin()
		t.end(spHunt)
	}
	d := time.Since(t0)
	t.end(spPass)
	return float64(d.Nanoseconds()) / n
}

// writeJSONL writes every recorded span of the tracers as one JSON
// object per line.
func writeJSONL(w io.Writer, ts []*tracer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	type line struct {
		Tracer  int    `json:"tracer"`
		Index   int    `json:"index"`
		Name    string `json:"name"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
		Parent  int32  `json:"parent"`
		Req     int64  `json:"req"`
	}
	for ti, t := range ts {
		for i, s := range t.buf {
			if err := enc.Encode(line{ti, i, s.id.String(), s.start, s.end, s.parent, s.req}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// runtimeMeter reads the Go runtime's allocation and GC counters.
type runtimeMeter struct {
	s []metrics.Sample
}

// runtimeReading is one reading of the runtime counters.
type runtimeReading struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

func newRuntimeMeter() *runtimeMeter {
	return &runtimeMeter{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
}

func (m *runtimeMeter) read() runtimeReading {
	metrics.Read(m.s)
	return runtimeReading{
		allocBytes:   m.s[0].Value.Uint64(),
		allocObjects: m.s[1].Value.Uint64(),
		gcCPU:        m.s[2].Value.Float64(),
		totalCPU:     m.s[3].Value.Float64(),
	}
}

// allocs returns the heap objects allocated so far.
func (m *runtimeMeter) allocs() uint64 {
	metrics.Read(m.s[1:2])
	return m.s[1].Value.Uint64()
}

// since returns the counter deltas from an earlier reading.
func (m *runtimeMeter) since(r0 runtimeReading) runtimeReading {
	r := m.read()
	return runtimeReading{
		allocBytes:   r.allocBytes - r0.allocBytes,
		allocObjects: r.allocObjects - r0.allocObjects,
		gcCPU:        r.gcCPU - r0.gcCPU,
		totalCPU:     r.totalCPU - r0.totalCPU,
	}
}
