package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"symbee"
	"symbee/internal/channel"
	"symbee/internal/core"
	"symbee/internal/dsp"
	"symbee/internal/link"
	"symbee/internal/medium"
	"symbee/internal/reliable"
	"symbee/internal/wifi"
)

// The traced runs replay each workload through the public stages the
// program's own entry points compose, timing every call from here. The
// receive workloads run the streaming stack's composition: the dsp
// phase front end into a core frame machine.

// rxStats counts what the receive composition did.
type rxStats struct {
	chunks  [numSpans]int // chunks per machine class (spHunt..spDecode)
	samples [numSpans]int // IQ samples per machine class
	locks   int
	frames  int
	errors  int
	lags    []float64 // samples from a frame's end to the push that emitted it
}

func (s *rxStats) add(o *rxStats) {
	for i := range s.chunks {
		s.chunks[i] += o.chunks[i]
		s.samples[i] += o.samples[i]
	}
	s.locks += o.locks
	s.frames += o.frames
	s.errors += o.errors
	s.lags = append(s.lags, o.lags...)
}

func (s *rxStats) totalChunks() (n int) {
	for _, c := range s.chunks {
		n += c
	}
	return n
}

func (s *rxStats) totalSamples() (n int) {
	for _, c := range s.samples {
		n += c
	}
	return n
}

// rxPath is the streaming receive composition under trace: one
// PhaseDiffStreamer feeding one FrameMachine, as in link.NewStreaming.
type rxPath struct {
	tr     *tracer
	st     *rxStats
	fe     *dsp.PhaseDiffStreamer
	m      *core.FrameMachine
	ph     []float64
	lockAt int // stream index of the pending lock, -1 when none
	expire int // how long after a lock its refinement and decode must have resolved
}

func newRxPath(tr *tracer, st *rxStats) (*rxPath, error) {
	p := core.Params20()
	dec, err := core.NewDecoder(p, wifi.CanonicalCompensation)
	if err != nil {
		return nil, err
	}
	fe, err := dsp.NewPhaseDiffStreamer(p.Lag)
	if err != nil {
		return nil, err
	}
	m, err := dec.NewFrameMachine()
	if err != nil {
		return nil, err
	}
	return &rxPath{tr: tr, st: st, fe: fe, m: m, ph: make([]float64, 0, chunkSamples),
		lockAt: -1, expire: 2 * core.DecodeGateSpan(p)}, nil
}

// push runs one IQ chunk through the front end and the machine and
// returns the machine's events, valid until the next push.
func (r *rxPath) push(iq []complex128) ([]core.StreamEvent, error) {
	r.tr.begin()
	r.ph = r.fe.Process(iq, r.ph[:0])
	r.tr.end(spFrontend)
	s0 := r.m.State()
	r.tr.begin()
	err := r.m.PushChunk(r.ph)
	evs := r.m.Events()
	class := r.classify(s0, evs)
	r.tr.end(class)
	r.st.chunks[class]++
	r.st.samples[class] += len(iq)
	return evs, err
}

// flush ends the stream and returns the final events.
func (r *rxPath) flush() []core.StreamEvent {
	s0 := r.m.State()
	r.tr.begin()
	r.m.Flush()
	evs := r.m.Events()
	r.tr.end(r.classify(s0, evs))
	return evs
}

// classify names a machine chunk by its state at entry and the events it
// emitted, and keeps the event counts. A lock stays pending — its
// chunks are refinement and selection work, even while the state still
// reads hunting — until a frame or decode error resolves it, or, for a
// selection that found no candidate and emits nothing, until expire
// samples have passed.
func (r *rxPath) classify(s0 core.MachineState, evs []core.StreamEvent) spanID {
	if r.lockAt >= 0 && s0 == core.StateHunting && r.m.Pushed()-r.lockAt > r.expire {
		r.lockAt = -1
	}
	class := spHunt
	switch {
	case s0 == core.StateDecoding:
		class = spGate
	case r.lockAt >= 0 || s0 == core.StateSelecting:
		class = spSelect
	}
	for _, ev := range evs {
		switch ev.Kind {
		case core.EventLock:
			r.st.locks++
			r.lockAt = ev.Anchor
			if class != spDecode {
				class = spLock
			}
		case core.EventFrame:
			r.st.frames++
			r.st.lags = append(r.st.lags, float64(r.m.Pushed()-ev.End))
			r.lockAt = -1
			class = spDecode
		case core.EventDecodeError:
			r.st.errors++
			r.lockAt = -1
			class = spDecode
		}
	}
	return class
}

// traceRun gathers what every traced pass reports besides its own
// layer counters.
type traceRun struct {
	res     *result
	tracers []*tracer
	win     *meter // the traced windows, scaled to the reference host
	rm      *runtimeMeter
	r0      runtimeReading
	air     float64 // air-seconds replayed
}

func newTraceRun(res *result, cores int, scaled bool) *traceRun {
	rm := newRuntimeMeter()
	return &traceRun{res: res, win: newMeter(cores, scaled), rm: rm, r0: rm.read()}
}

// finish sets the layer metrics every workload reports: span shares of
// base (the wall time the shares divide), coverage, tracing overhead,
// the traced windows' realtime multiple and the runtime counters. Every
// layer metric the workload's path does not reach reads 0.
func (t *traceRun) finish(base float64) {
	m := t.res.metrics
	for _, d := range metricsOfKind(layer) {
		m[d.Name] = 0
	}
	tot := sumTotals(t.tracers)
	share := func(ids ...spanID) float64 {
		var ns int64
		for _, id := range ids {
			ns += tot[id].self
		}
		return ratio(float64(ns)/1e9, base)
	}
	m["dsp.frontend.share"] = share(spFrontend)
	m["core.hunt.share"] = share(spHunt)
	m["core.select.share"] = share(spLock, spSelect)
	m["core.gate.share"] = share(spGate)
	m["core.decode.share"] = share(spDecode)
	m["reliable.session.self_share"] = share(spSession)
	m["link.downlink.share"] = share(spDownlink)
	m["core.encode.share"] = share(spEncode)
	m["zigbee.modulate.share"] = share(spModulate)
	m["channel.faults.share"] = share(spFaults)
	m["wifi.phases.share"] = share(spPhases)
	m["link.uplink.share"] = share(spUplink)
	m["reliable.coded.share"] = share(spCoded)
	m["medium.engine.share"] = share(spEngine)

	pass := tot[spPass]
	m["trace.coverage"] = 1 - ratio(float64(pass.self), float64(pass.total))
	spans, dropped := 0, 0
	for _, tr := range t.tracers {
		spans += tr.spans()
		dropped += tr.dropped
	}
	m["trace.overhead_share"] = ratio(float64(spans)*spanCostNS()/1e9, float64(pass.total)/1e9)
	m["trace.realtime_x"] = median(t.win.rates)
	t.res.info["host_speed"] = median(t.win.speed)

	d := t.rm.since(t.r0)
	m["runtime.alloc_mb_per_air_s"] = ratio(float64(d.allocBytes)/(1<<20), t.air)
	m["runtime.gc.cpu_share"] = ratio(d.gcCPU, d.totalCPU)
	t.res.info["spans"] = float64(spans)
	t.res.info["spans_not_kept"] = float64(dropped) // beyond the buffer, so missing from --trace-out
	t.res.info["unattributed_s"] = float64(pass.self) / 1e9
	t.res.tracers = t.tracers
}

// rxLayers sets the receive-composition layer metrics and unit costs.
func (t *traceRun) rxLayers(st *rxStats, allocs uint64) {
	m := t.res.metrics
	tot := sumTotals(t.tracers)
	chunks, samples := st.totalChunks(), st.totalSamples()
	m["core.hunt.fastpath_share"] = ratio(float64(st.chunks[spHunt]), float64(chunks))
	m["core.lock.per_msample"] = ratio(float64(st.locks)*1e6, float64(samples))
	m["core.decode.frames_per_lock"] = ratio(float64(st.frames), float64(st.locks))
	m["core.gate.lag_samples_p50"] = median(st.lags)
	m["link.stack.allocs_per_chunk"] = ratio(float64(allocs), float64(chunks))
	m["dsp.frontend.ns_per_sample"] = ratio(float64(tot[spFrontend].total), float64(samples))
	m["core.hunt.ns_per_sample"] = ratio(float64(tot[spHunt].total), float64(st.samples[spHunt]))
	m["core.select.us_per_lock"] = ratio(float64(tot[spLock].total+tot[spSelect].total)/1e3, float64(st.locks))
	m["core.decode.us_per_attempt"] = ratio(float64(tot[spDecode].total)/1e3, float64(st.frames+st.errors))
	t.res.info["chunks"] = float64(chunks)
	t.res.info["locks"] = float64(st.locks)
	t.res.info["frames_decoded"] = float64(st.frames)
	t.res.info["decode_errors"] = float64(st.errors)
}

// passWall is the summed duration of the tracers' root spans, in
// seconds.
func passWall(ts []*tracer) float64 {
	return float64(sumTotals(ts)[spPass].total) / 1e9
}

// ---- idle_air ----------------------------------------------------------

// traceIdleAir spends a quarter of the budget on the pool with each
// Ingest timed (the producer's wait share), then the rest on the receive
// composition, one goroutine per stream as the pool's workers own one
// stream each.
func traceIdleAir(c runConfig) (*result, error) {
	res := newResult()
	streams := genIdle(c, res)

	var frames, other atomic.Int64
	pool, err := newIdlePool(&frames, &other)
	if err != nil {
		return nil, err
	}
	ptr := newTracer(c.sizes.traceSpanLimit / 4)
	f := &idleFeeder{pool: pool, streams: streams}
	f.feed(idleQueueFill)
	f.tr = ptr
	perWindow := c.sizes.idleWindow / chunkSamples
	_, _ = repeat(c.budget/4, func(int) error {
		ptr.begin()
		f.feed(perWindow / 4)
		ptr.end(spPass)
		return nil
	})
	pool.Close()
	if n := frames.Load(); n > 0 {
		res.addWrong("%d frames decoded on pure noise", n)
	}

	run := newTraceRun(res, idleStreams, true)
	stats := make([]rxStats, idleStreams)
	paths := make([]*rxPath, idleStreams)
	for s := range paths {
		tr := newTracer(c.sizes.traceSpanLimit / 2)
		run.tracers = append(run.tracers, tr)
		if paths[s], err = newRxPath(tr, &stats[s]); err != nil {
			return nil, err
		}
	}
	errs := make([]error, idleStreams)
	pos := 0
	air := float64(idleStreams*perWindow*chunkSamples) / sampleRate
	windows, err := repeat(c.budget*3/4, func(int) error {
		w := run.win.ref.open()
		var wg sync.WaitGroup
		for s := range paths {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				errs[s] = idleWindow(paths[s], streams[s], pos, perWindow)
			}(s)
		}
		wg.Wait()
		wall, scale := w.close()
		run.win.add(air, wall, scale)
		pos += perWindow
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var st rxStats
	for s := range stats {
		st.add(&stats[s])
	}
	if st.frames > 0 {
		res.addWrong("%d frames decoded on pure noise", st.frames)
	}
	res.attempted = st.totalChunks() + idleStreams*f.pos
	res.failed = f.rejected + st.frames + int(frames.Load())
	run.air = float64(windows) * air
	allocs := run.rm.since(run.r0).allocObjects
	run.finish(passWall(run.tracers))
	run.rxLayers(&st, allocs)
	ingest := ptr.totals[spIngest]
	res.metrics["stream.ingest.wait_share"] = ratio(float64(ingest.total), float64(ptr.totals[spPass].total))
	res.tracers = append(res.tracers, ptr)
	res.info["windows"] = float64(windows)
	return res, nil
}

// idleWindow replays one window of one noise stream through a receive
// path, each chunk a request.
func idleWindow(r *rxPath, buf []complex128, pos, chunks int) error {
	r.tr.begin()
	defer r.tr.end(spPass)
	for k := 0; k < chunks; k++ {
		off := ((pos + k) * chunkSamples) % len(buf)
		r.tr.req = int64(pos + k)
		if _, err := r.push(buf[off : off+chunkSamples]); err != nil {
			return err
		}
	}
	return nil
}

// ---- busy_air ----------------------------------------------------------

func traceBusyAir(c runConfig) (*result, error) {
	res := newResult()
	cp, err := genBusy(c, res)
	if err != nil {
		return nil, err
	}
	run := newTraceRun(res, 1, true)
	tr := newTracer(c.sizes.traceSpanLimit)
	run.tracers = []*tracer{tr}
	var st rxStats
	r, err := newRxPath(tr, &st)
	if err != nil {
		return nil, err
	}
	sc := newFrameScorer(cp, res)
	period := len(cp.iq)
	chunks := period / chunkSamples
	score := func(evs []core.StreamEvent) {
		for _, ev := range evs {
			if ev.Kind == core.EventFrame {
				sc.score(ev.Anchor, ev.Frame)
			}
		}
	}
	passes, err := repeat(c.budget, func(pass int) error {
		return run.win.window(float64(period)/sampleRate, func() error {
			tr.begin()
			defer tr.end(spPass)
			for k := 0; k < chunks; k++ {
				tr.req = int64(pass*chunks + k)
				evs, err := r.push(cp.iq[k*chunkSamples : (k+1)*chunkSamples])
				if err != nil {
					return err
				}
				score(evs)
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	allocs := run.rm.since(run.r0).allocObjects
	score(r.flush())
	sc.finish(passes)
	run.air = float64(passes*period) / sampleRate
	run.finish(passWall(run.tracers))
	run.rxLayers(&st, allocs)
	res.info["windows"] = float64(passes)
	return res, nil
}

// ---- crowd -------------------------------------------------------------

// crowdSink is the traced medium.Sink: the receive composition of
// link.RunMedium's sink, crediting decoded frames back to the engine.
type crowdSink struct {
	tr     *tracer
	rx     *rxPath
	eng    *medium.Engine
	wideID bool
	pushed int
}

func (s *crowdSink) PushChunk(iq []complex128) error {
	s.tr.begin()
	defer s.tr.end(spRx)
	s.tr.req = int64(s.pushed)
	s.pushed++
	evs, err := s.rx.push(iq)
	if err != nil {
		return err
	}
	s.match(evs)
	return nil
}

func (s *crowdSink) Flush() error {
	s.tr.begin()
	defer s.tr.end(spRx)
	s.match(s.rx.flush())
	return nil
}

func (s *crowdSink) match(evs []core.StreamEvent) {
	for _, ev := range evs {
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

// runCrowdTraced runs one scenario through the traced sink and returns
// the engine's report, which must equal link.RunMedium's.
func runCrowdTraced(cfg medium.Config, tr *tracer, st *rxStats) (*medium.Report, error) {
	eng, err := medium.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	rx, err := newRxPath(tr, st)
	if err != nil {
		return nil, err
	}
	sink := &crowdSink{tr: tr, rx: rx, eng: eng, wideID: cfg.DataBytes >= 3}
	tr.begin()
	defer tr.end(spEngine)
	return eng.Run(sink)
}

func traceCrowd(c runConfig) (*result, error) {
	res := newResult()
	run := newTraceRun(res, 1, false)
	tr := newTracer(c.sizes.traceSpanLimit)
	run.tracers = []*tracer{tr}
	var st rxStats
	var overlap []float64
	var samples int
	seeds, err := repeat(c.budget, func(i int) error {
		seed := c.seed + int64(i)
		w := run.win.ref.open()
		tr.begin()
		rep, err := runCrowdTraced(crowdConfig(seed, c.sizes.crowdSenders, c.sizes.crowdFrames), tr, &st)
		tr.end(spPass)
		wall, scale := w.close()
		res.attempted++
		if err != nil {
			res.failed++
			res.addWrong("crowd seed %d: %v", seed, err)
			return nil
		}
		checkCrowd(res, rep, seed)
		run.win.add(rep.DurationSec, wall, scale)
		overlap = append(overlap, float64(rep.PeakOverlap))
		samples += rep.TotalSamples
		run.air += rep.DurationSec
		return nil
	})
	if err != nil {
		return nil, err
	}
	allocs := run.rm.since(run.r0).allocObjects
	run.finish(passWall(run.tracers))
	run.rxLayers(&st, allocs)
	tot := sumTotals(run.tracers)
	m := res.metrics
	m["medium.engine.peak_overlap"] = median(overlap)
	m["medium.engine.ns_per_sample"] = ratio(float64(tot[spEngine].self), float64(samples))
	m["medium.rx.ns_per_sample"] = ratio(float64(tot[spRx].total), float64(samples))
	res.info["seeds"] = float64(seeds)
	return res, nil
}

// ---- arq_soak ----------------------------------------------------------

// tracedLink is the ARQ transport under trace: the SimLink itself, with
// Send, NextArrival and AckLatency timed. Acks is not wrapped: its
// signature names the ack event type, so its time counts as session
// self time. After each timed Send, and outside its span, the frame is
// replayed through the public stages on the shadow.
type tracedLink struct {
	*symbee.SimLink
	tr         *tracer
	sh         *shadow
	collisions int // forward collisions seen so far in the link's ledger
}

func (l *tracedLink) Send(now time.Duration, f *symbee.Frame, coded bool) (time.Duration, error) {
	l.tr.req++
	l.tr.begin()
	airtime, err := l.SimLink.Send(now, f, coded)
	l.tr.end(spSend)
	if err != nil {
		return airtime, err
	}
	// A frame the link lost to an ack collision is never modulated;
	// the shadow skips it too, which keeps its fault schedule in step.
	c := l.Duplex().Down().Ledger().ForwardCollisions
	collided := c > l.collisions
	l.collisions = c
	l.sh.replay(f, coded, collided)
	return airtime, nil
}

func (l *tracedLink) NextArrival(now time.Duration) (time.Duration, bool) {
	l.tr.begin()
	at, ok := l.SimLink.NextArrival(now)
	l.tr.end(spDownlink)
	return at, ok
}

func (l *tracedLink) AckLatency() time.Duration {
	l.tr.begin()
	d := l.SimLink.AckLatency()
	l.tr.end(spDownlink)
	return d
}

// shadow replays sent frames through the stages SimLink.Send composes,
// each timed: encode, modulate, fault injection, WiFi phase extraction,
// a batch link stack, and the coded trial decode. It has its own fault
// injector on the same profile, so it draws nothing from the link's
// random streams yet drops and jams the same frames.
type shadow struct {
	tr    *tracer
	phy   *core.Link
	inj   *channel.FaultInjector
	up    *link.Stack
	rm    *runtimeMeter
	sent  map[string]bool // (seq, data, coded) of this transfer's frames
	sends int
	// repeats counts sends of a frame already sent in the transfer.
	repeats int
	applies int
	drops   int
	uplinks int
	allocs  uint64 // heap objects allocated inside the uplink stage
}

func newShadow(tr *tracer, rm *runtimeMeter, faults channel.FaultConfig) (*shadow, error) {
	phy, err := core.NewLink(core.Params20(), 0)
	if err != nil {
		return nil, err
	}
	inj, err := channel.NewFaultInjector(faults)
	if err != nil {
		return nil, err
	}
	up, err := link.NewBatch(phy.Decoder(), nil)
	if err != nil {
		return nil, err
	}
	return &shadow{tr: tr, phy: phy, inj: inj, up: up, rm: rm, sent: map[string]bool{}}, nil
}

func (s *shadow) replay(f *core.Frame, coded, collided bool) {
	s.tr.begin()
	defer s.tr.end(spShadow)
	key := fmt.Sprintf("%d/%t/%x", f.Seq, coded, f.Data)
	if s.sent[key] {
		s.repeats++
	}
	s.sent[key] = true
	s.sends++

	var payload []byte
	var err error
	s.tr.begin()
	if coded {
		payload, err = reliable.EncodeCodedFrame(f)
		s.tr.end(spCoded)
	} else {
		payload, err = core.EncodeFrame(f)
		s.tr.end(spEncode)
	}
	if err != nil || collided {
		return
	}
	s.tr.begin()
	sig, err := s.phy.PayloadToSignal(payload)
	s.tr.end(spModulate)
	if err != nil {
		return
	}
	s.tr.begin()
	capture, ok := s.inj.Apply(sig)
	s.tr.end(spFaults)
	s.applies++
	if !ok {
		s.drops++
		return
	}
	s.tr.begin()
	phases := s.phy.Phases(capture)
	s.tr.end(spPhases)

	s.tr.begin()
	a0 := s.rm.allocs()
	s.up.Reset()
	_ = s.up.PushPhases(phases) // a reset batch stack accepts any phases
	_ = s.up.Flush()
	decoded := false
	for _, ev := range s.up.Drain() {
		decoded = decoded || ev.Kind == core.EventFrame
	}
	s.allocs += s.rm.allocs() - a0
	s.uplinks++
	s.tr.end(spUplink)
	if !decoded {
		s.tr.begin()
		_, _ = reliable.DecodeCodedPhases(s.phy.Decoder(), phases) // outcome already delivered by the link
		s.tr.end(spCoded)
	}
}

func traceARQSoak(c runConfig) (*result, error) {
	res := newResult()
	run := newTraceRun(res, 1, true)
	tr := newTracer(c.sizes.traceSpanLimit)
	run.tracers = []*tracer{tr}
	var sends, repeats, applies, drops, uplinks, retransmits, framesSent int
	var uplinkAllocs uint64
	transfers, err := repeat(c.budget, func(i int) error {
		seed := c.seed + int64(i)
		sh, err := newShadow(tr, run.rm, reliable.ProfileSoak(seed))
		if err != nil {
			return err
		}
		sl, sess, err := newARQSession(seed, func(sl *symbee.SimLink) symbee.Transport {
			return &tracedLink{SimLink: sl, tr: tr, sh: sh}
		})
		if err != nil {
			return err
		}
		msg := arqMessage(seed, c.sizes.arqBytes)
		shadow0 := tr.totals[spShadow].total
		w := run.win.ref.open()
		tr.begin()
		tr.begin()
		rep, err := sess.Send(context.Background(), msg)
		tr.end(spSession)
		sl.Close()
		tr.end(spPass)
		wall, scale := w.close()
		res.attempted++
		if err != nil || !checkDelivery(res, sl, msg, i) {
			res.failed++
			return nil
		}
		// The shadow doubles the work of every send; the traced realtime
		// multiple and the shares leave its time out.
		run.win.add(rep.Elapsed.Seconds(), wall-float64(tr.totals[spShadow].total-shadow0)/1e9, scale)
		run.air += rep.Elapsed.Seconds()
		retransmits += rep.Retransmits
		framesSent += rep.FramesSent
		sends += sh.sends
		repeats += sh.repeats
		applies += sh.applies
		drops += sh.drops
		uplinks += sh.uplinks
		uplinkAllocs += sh.allocs
		return nil
	})
	if err != nil {
		return nil, err
	}
	tot := sumTotals(run.tracers)
	allocBytes := run.rm.since(run.r0).allocBytes
	base := passWall(run.tracers) - float64(tot[spShadow].total)/1e9
	run.finish(base)
	m := res.metrics
	m["reliable.session.retransmit_share"] = ratio(float64(retransmits), float64(framesSent))
	m["zigbee.modulate.repeat_share"] = ratio(float64(repeats), float64(sends))
	m["channel.faults.drop_share"] = ratio(float64(drops), float64(applies))
	m["reliable.coded.calls_per_frame"] = ratio(float64(tot[spCoded].n), float64(sends))
	m["link.stack.allocs_per_chunk"] = ratio(float64(uplinkAllocs), float64(uplinks))
	var stages int64
	for _, id := range []spanID{spEncode, spCoded, spModulate, spFaults, spPhases, spUplink} {
		stages += tot[id].total
	}
	m["arq.shadow_coverage"] = ratio(float64(stages), float64(tot[spSend].total))
	perCall := func(id spanID) float64 { return ratio(float64(tot[id].total)/1e3, float64(tot[id].n)) }
	m["reliable.session.self_us_per_frame"] = ratio(float64(tot[spSession].self)/1e3, float64(sends))
	m["link.downlink.us_per_frame"] = ratio(float64(tot[spDownlink].total)/1e3, float64(sends))
	m["core.encode.us_per_frame"] = perCall(spEncode)
	m["zigbee.modulate.us_per_frame"] = perCall(spModulate)
	m["channel.faults.us_per_frame"] = perCall(spFaults)
	m["wifi.phases.us_per_frame"] = perCall(spPhases)
	m["link.uplink.us_per_frame"] = perCall(spUplink)
	m["reliable.coded.us_per_call"] = perCall(spCoded)
	m["runtime.alloc_mb_per_frame"] = ratio(float64(allocBytes)/(1<<20), float64(sends))
	res.info["transfers"] = float64(transfers)
	res.info["frames_sent"] = float64(sends)
	return res, nil
}
