package main

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"syscall"
	"time"

	"symbee"
	"symbee/internal/core"
	"symbee/internal/link"
	"symbee/internal/medium"
	"symbee/internal/reliable"
	"symbee/internal/wifi"
)

// workload is one named set of inputs and the two ways of running it.
type workload struct {
	name string
	why  string
	// run measures the end-to-end metrics with tracing off.
	run func(runConfig) (*result, error)
	// trace measures the per-layer metrics in a traced pass.
	trace func(runConfig) (*result, error)
}

// workloads is the benchmark's workload table; BENCHMARK.json mirrors
// the names and reasons.
var workloads = []workload{
	{"idle_air", "two noise streams into a 2-worker pool: the always-on idle listening a deployed receiver spends almost all its time in", runIdleAir, traceIdleAir},
	{"busy_air", "back-to-back frames at 10-16 dB into one receiver: refinement and decode dominate; per-chunk and per-frame latency", runBusyAir, traceBusyAir},
	{"arq_soak", "4 KiB ARQ transfers under the soak fault profile with the C-Morse downlink: modulation, faults, batch decode, session", runARQSoak, traceARQSoak},
	{"crowd", "256 unslotted senders on one medium: waveform synthesis of ~60 overlapping frames and the decode-error path", runCrowd, traceCrowd},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizes fixes the input and window sizes of every workload. Windows are
// short (0.05-0.2 s of wall time) next to the host's slow episodes,
// which last seconds, so the reference samples at a window's two ends
// describe the host during it (see hostref.go). crowd's windows are
// whole scenarios of ~2 s; its rates are not scaled.
type sizes struct {
	idleSamples    int // noise buffer per stream, looped
	idleWindow     int // samples per stream per window
	idleSegment    int // windows per pool lifetime
	corpusSamples  int // busy_air capture, looped; one pass is one window
	arqBytes       int // message per transfer
	arqWindow      int // sends per window
	crowdSenders   int
	crowdFrames    int
	traceSpanLimit int // spans kept in memory for -trace-out
}

// fullSizes are the measured sizes; shortSizes shrink every input for
// the smoke test.
var (
	fullSizes = sizes{
		idleSamples: 1 << 20, idleWindow: 1 << 21, idleSegment: 32,
		corpusSamples: 1 << 22,
		arqBytes:      4096, arqWindow: 64,
		crowdSenders: 256, crowdFrames: 4,
		traceSpanLimit: 1 << 20,
	}
	shortSizes = sizes{
		idleSamples: 1 << 15, idleWindow: 1 << 19, idleSegment: 2,
		corpusSamples: 1 << 19,
		arqBytes:      128, arqWindow: 8,
		crowdSenders: 8, crowdFrames: 2,
		traceSpanLimit: 1 << 14,
	}
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed   int64
	budget time.Duration // measured time; every workload runs whole units until it has passed
	sizes  sizes
}

// result is what one run measured.
type result struct {
	attempted int
	failed    int
	wrong     []string // wrong outputs; any makes the run incorrect
	metrics   map[string]float64
	info      map[string]float64 // counts and sizes printed beside the metrics
	tracers   []*tracer          // traced runs only
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, info: map[string]float64{}}
}

// addWrong records a wrong output, keeping the first few descriptions.
func (r *result) addWrong(format string, args ...any) {
	r.info["wrong_outputs"]++
	if len(r.wrong) < 8 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

// repeat runs unit(0), unit(1), ... until budget has passed since the
// first call, and at least once. It returns the number of units run.
func repeat(budget time.Duration, unit func(i int) error) (int, error) {
	start := time.Now()
	i := 0
	for ; i == 0 || time.Since(start) < budget; i++ {
		if err := unit(i); err != nil {
			return i, err
		}
	}
	return i, nil
}

// meter collects a run's measured windows: each window's rate scaled to
// the reference host (see hostref.go), its raw rate and the host speed
// during it.
type meter struct {
	ref *hostRef
	// scaled is false for a workload bound by what the reference does
	// not measure: crowd's synthesis sums ~60 waveform streams per
	// sample and is bound by memory. Over five 10-seed sets its raw rate
	// spread 4-18% and its scaled rate 10-23%, so its rates stay raw.
	scaled            bool
	rates, raw, speed []float64
}

// newMeter returns a meter for a workload that keeps cores goroutines
// busy.
func newMeter(cores int, scaled bool) *meter {
	return &meter{ref: newHostRef(cores), scaled: scaled}
}

// window times fn as one window that does work units of work.
func (m *meter) window(work float64, fn func() error) error {
	w := m.ref.open()
	if err := fn(); err != nil {
		return err
	}
	wall, scale := w.close()
	m.add(work, wall, scale)
	return nil
}

// add records a window of work units done in wall seconds, with the
// factor that scales its times to the reference host.
func (m *meter) add(work, wall, scale float64) {
	m.raw = append(m.raw, work/wall)
	m.speed = append(m.speed, scale)
	if !m.scaled {
		scale = 1
	}
	m.rates = append(m.rates, work/(wall*scale))
}

// set stores realtime_x, the median scaled rate times perUnit
// air-seconds per unit of work, and max_rss_mb, with the raw median, the
// host speed and the window count beside them.
func (m *meter) set(res *result, perUnit float64) {
	res.metrics["realtime_x"] = perUnit * median(m.rates)
	res.metrics["max_rss_mb"] = maxRSSMB()
	res.info["realtime_x_raw"] = perUnit * median(m.raw)
	res.info["host_speed"] = median(m.speed)
	res.info["windows"] = float64(len(m.rates))
}

// setupTimer times constructions of a workload's program objects. A run
// takes its samples at points spread over its whole length, each while
// the pipeline under test is quiescent and right after a one-core
// reference sample that scales it, so setup_s sees the same host as the
// windows.
type setupTimer struct {
	ref     *hostRef
	build   func() (release func(), err error)
	samples []float64
}

// sample times n constructions; each build's release runs untimed.
func (s *setupTimer) sample(n int) error {
	for i := 0; i < n; i++ {
		r := s.ref.sample()
		t0 := time.Now()
		release, err := s.build()
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		s.samples = append(s.samples, d.Seconds()*refNominal/r)
		release()
	}
	return nil
}

// set stores setup_s, the median construction time, and the sample
// count.
func (s *setupTimer) set(res *result) {
	res.metrics["setup_s"] = median(s.samples)
	res.info["setup_samples"] = float64(len(s.samples))
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ---- idle_air ----------------------------------------------------------

// idleStreams is the number of noise streams, one per pool worker.
const idleStreams = 2

func genIdle(c runConfig, res *result) [][]complex128 {
	t0 := time.Now()
	out := make([][]complex128, idleStreams)
	for s := range out {
		out[s] = genNoise(c.seed, streamIdleBase+s, c.sizes.idleSamples)
	}
	res.info["gen_s"] = time.Since(t0).Seconds()
	res.info["input_mb"] = float64(idleStreams*c.sizes.idleSamples*16) / (1 << 20)
	return out
}

// idleFeeder is the single producer of idle_air: it hands the noise
// streams to the pool chunk by chunk, round-robin, looping the buffers.
type idleFeeder struct {
	pool     *symbee.Pool
	streams  [][]complex128
	pos      int // chunks fed per stream so far
	rejected int
	tr       *tracer // non-nil: each Ingest is a span
}

func (f *idleFeeder) feed(chunksPerStream int) {
	for k := 0; k < chunksPerStream; k++ {
		for s, buf := range f.streams {
			off := (f.pos * chunkSamples) % len(buf)
			c := symbee.Chunk{Stream: uint64(s), IQ: buf[off : off+chunkSamples]}
			if f.tr != nil {
				f.tr.begin()
			}
			ok := f.pool.Ingest(c)
			if f.tr != nil {
				f.tr.end(spIngest)
			}
			if !ok {
				f.rejected++
			}
		}
		f.pos++
	}
}

// idleQueueFill is enough chunks per stream to fill a worker queue (64
// deep by default) before the clock starts, so every window is timed
// from one full-queue state to the next.
const idleQueueFill = 65

// newIdlePool builds the idle_air pool; the event callback runs on the
// workers and only counts.
func newIdlePool(frames, other *atomic.Int64) (*symbee.Pool, error) {
	return symbee.NewPool(symbee.WithWorkers(idleStreams), symbee.WithEvents(func(ev symbee.Event) {
		if ev.Kind == symbee.EventFrame {
			frames.Add(1)
		} else {
			other.Add(1)
		}
	}))
}

// runIdleAir feeds the pool in segments: each builds a pool, fills its
// queues, times a run of windows and closes it. Setup samples are taken
// between segments, when no worker runs.
func runIdleAir(c runConfig) (*result, error) {
	res := newResult()
	streams := genIdle(c, res)
	m := newMeter(idleStreams, true)
	st := &setupTimer{ref: newHostRef(1), build: func() (func(), error) {
		p, err := symbee.NewPool(symbee.WithWorkers(idleStreams))
		if err != nil {
			return nil, err
		}
		return p.Close, nil
	}}
	var frames, other atomic.Int64
	perWindow := c.sizes.idleWindow / chunkSamples
	air := float64(idleStreams*perWindow*chunkSamples) / sampleRate
	start := time.Now()
	for seg := 0; seg == 0 || time.Since(start) < c.budget; seg++ {
		if err := st.sample(2); err != nil {
			return nil, err
		}
		pool, err := newIdlePool(&frames, &other)
		if err != nil {
			return nil, err
		}
		f := &idleFeeder{pool: pool, streams: streams}
		f.feed(idleQueueFill)
		for w := 0; w < c.sizes.idleSegment && (w == 0 || time.Since(start) < c.budget); w++ {
			_ = m.window(air, func() error { f.feed(perWindow); return nil })
		}
		pool.Close()
		res.attempted += idleStreams * f.pos
		res.failed += f.rejected
		res.info["segments"]++
	}
	if n := frames.Load(); n > 0 {
		res.failed += int(n)
		res.addWrong("%d frames decoded on pure noise", n)
	}
	st.set(res)
	m.set(res, 1)
	res.info["air_s_per_window"] = air
	res.info["lock_or_error_events"] = float64(other.Load())
	return res, nil
}

// ---- busy_air ----------------------------------------------------------

// frameScorer checks decoded frames of a looped busy_air corpus against
// its ground truth.
type frameScorer struct {
	c       *corpus
	res     *result
	matched int
	last    int // highest matched key (pass*len(frames)+index), -1 before any
}

func newFrameScorer(c *corpus, res *result) *frameScorer {
	return &frameScorer{c: c, res: res, last: -1}
}

// score matches a decoded frame anchored at absolute stream index anchor
// to its ground-truth frame. It returns the frame's absolute last
// sample, or -1 for a wrong output (no frame there, payload differs, or
// a frame reported twice).
func (s *frameScorer) score(anchor int, f *core.Frame) int {
	period := len(s.c.iq)
	pass, off := anchor/period, anchor%period
	i := s.c.frameAt(off)
	if i < 0 {
		s.res.addWrong("frame seq=%d at sample %d matches no sent frame", f.Seq, anchor)
		return -1
	}
	want := s.c.frames[i]
	if f.Seq != want.frame.Seq || !bytes.Equal(f.Data, want.frame.Data) {
		s.res.addWrong("frame at sample %d decoded as seq=%d %x, sent seq=%d %x",
			anchor, f.Seq, f.Data, want.frame.Seq, want.frame.Data)
		return -1
	}
	key := pass*len(s.c.frames) + i
	if key <= s.last {
		s.res.addWrong("frame %d of pass %d reported twice", i, pass)
		return -1
	}
	s.last = key
	s.matched++
	return pass*period + want.end
}

// finish counts the frames of passes fully replayed that never decoded.
func (s *frameScorer) finish(passes int) {
	sent := passes * len(s.c.frames)
	s.res.attempted += sent
	s.res.failed += sent - s.matched
}

func genBusy(c runConfig, res *result) (*corpus, error) {
	t0 := time.Now()
	cp, err := genCorpus(c.seed, c.sizes.corpusSamples)
	if err != nil {
		return nil, err
	}
	res.info["gen_s"] = time.Since(t0).Seconds()
	res.info["input_mb"] = float64(len(cp.iq)*16) / (1 << 20)
	res.info["frames_per_pass"] = float64(len(cp.frames))
	return cp, nil
}

// runBusyAir replays the corpus through one receiver, one pass per
// window, timing every chunk on a virtual 1x radio clock.
func runBusyAir(c runConfig) (*result, error) {
	res := newResult()
	cp, err := genBusy(c, res)
	if err != nil {
		return nil, err
	}
	m := newMeter(1, true)
	st := &setupTimer{ref: newHostRef(1), build: func() (func(), error) {
		_, err := symbee.NewReceiver(symbee.Params20())
		return func() {}, err
	}}
	rx, err := symbee.NewReceiver(symbee.Params20())
	if err != nil {
		return nil, err
	}
	sc := newFrameScorer(cp, res)
	period := len(cp.iq)
	chunks := period / chunkSamples
	// The virtual 1x radio clock: chunk k is due when its last sample
	// has arrived at 20 Msps; it starts once due and once the previous
	// chunk has finished, and finishes after its service time. Service
	// times are scaled to the reference host once the pass's closing
	// reference sample is in, so the clock is replayed per pass.
	type emitted struct{ chunk, end int }
	var finish float64
	var chunkUS, latencyMS []float64
	dt := make([]float64, chunks)
	var frames []emitted
	passes, err := repeat(c.budget, func(pass int) error {
		if err := st.sample(1); err != nil {
			return err
		}
		frames = frames[:0]
		w := m.ref.open()
		for k := 0; k < chunks; k++ {
			t0 := time.Now()
			if err := rx.PushIQ(cp.iq[k*chunkSamples : (k+1)*chunkSamples]); err != nil {
				return err
			}
			evs := rx.Drain()
			dt[k] = time.Since(t0).Seconds()
			for _, ev := range evs {
				if ev.Kind == symbee.EventFrame {
					if end := sc.score(ev.Anchor, ev.Frame); end >= 0 {
						frames = append(frames, emitted{k, end})
					}
				}
			}
		}
		wall, scale := w.close()
		m.add(float64(period)/sampleRate, wall, scale)
		next := 0
		for k := range dt {
			d := dt[k] * scale
			chunkUS = append(chunkUS, d*1e6)
			finish = max(float64(pass*period+(k+1)*chunkSamples)/sampleRate, finish) + d
			for ; next < len(frames) && frames[next].chunk == k; next++ {
				latencyMS = append(latencyMS, (finish-float64(frames[next].end+1)/sampleRate)*1e3)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rx.Flush()
	for _, ev := range rx.Drain() {
		if ev.Kind == symbee.EventFrame {
			sc.score(ev.Anchor, ev.Frame)
		}
	}
	sc.finish(passes)

	st.set(res)
	m.set(res, 1)
	res.metrics["chunk_p50_us"] = percentile(chunkUS, 50)
	res.metrics["chunk_p99_us"] = percentile(chunkUS, 99)
	res.metrics["frame_latency_p50_ms"] = percentile(latencyMS, 50)
	res.metrics["frame_latency_p99_ms"] = percentile(latencyMS, 99)
	res.info["chunks"] = float64(len(chunkUS))
	res.info["frames_timed"] = float64(len(latencyMS))
	return res, nil
}

// ---- arq_soak ----------------------------------------------------------

// newARQSession builds the link and session of one transfer: seed
// drives the soak fault profile and the session jitter (transfer i of a
// run uses the run's seed+i). wrap, when set, wraps the link before the
// session sees it.
func newARQSession(seed int64, wrap func(*symbee.SimLink) symbee.Transport) (*symbee.SimLink, *symbee.Session, error) {
	cfg := symbee.DefaultSimConfig()
	cfg.Faults = reliable.ProfileSoak(seed)
	sl, err := symbee.NewSimLink(cfg)
	if err != nil {
		return nil, nil, err
	}
	var tx symbee.Transport = sl
	if wrap != nil {
		tx = wrap(sl)
	}
	sess, err := symbee.NewSession(symbee.WithTransport(tx), symbee.WithSeed(seed))
	if err != nil {
		return nil, nil, err
	}
	return sl, sess, nil
}

// checkDelivery records a wrong output unless exactly msg arrived.
func checkDelivery(res *result, sl *symbee.SimLink, msg []byte, i int) bool {
	msgs := sl.Messages()
	if len(msgs) != 1 || !bytes.Equal(msgs[0], msg) {
		res.addWrong("transfer %d: %d messages delivered, want the %d-byte message intact", i, len(msgs), len(msg))
		return false
	}
	return true
}

// sendClock is the ARQ transport of the untraced run: the SimLink
// itself, cutting the transfer into windows of n sends. Its reference
// samples fall between one window's last send and the next window's
// first, outside both.
type sendClock struct {
	*symbee.SimLink
	m     *meter
	n     int
	sends int
	w     window
}

func (l *sendClock) Send(now time.Duration, f *symbee.Frame, coded bool) (time.Duration, error) {
	if l.sends%l.n == 0 {
		if l.sends > 0 {
			wall, scale := l.w.close()
			l.m.add(float64(l.n), wall, scale)
		}
		l.w = l.m.ref.open()
	}
	l.sends++
	return l.SimLink.Send(now, f, coded)
}

// runARQSoak runs whole transfers until the budget has passed. A
// transfer's wall time is its sends (session logic and the downlink
// take under 1%), while its session time also holds timer waits that
// cost no wall time. So realtime_x is the run's session seconds per
// send, a deterministic function of the seeds, times the median sends
// per wall-second over windows of sends.
func runARQSoak(c runConfig) (*result, error) {
	res := newResult()
	m := newMeter(1, true)
	st := &setupTimer{ref: newHostRef(1), build: func() (func(), error) {
		_, _, err := newARQSession(c.seed, nil)
		return func() {}, err
	}}
	var goodput []float64
	var elapsed time.Duration
	var sends int
	transfers, err := repeat(c.budget, func(i int) error {
		if err := st.sample(4); err != nil {
			return err
		}
		seed := c.seed + int64(i)
		clk := &sendClock{m: m, n: c.sizes.arqWindow}
		sl, sess, err := newARQSession(seed, func(sl *symbee.SimLink) symbee.Transport {
			clk.SimLink = sl
			return clk
		})
		if err != nil {
			return err
		}
		msg := arqMessage(seed, c.sizes.arqBytes)
		rep, err := sess.Send(context.Background(), msg)
		sl.Close()
		res.attempted++
		if err != nil || !checkDelivery(res, sl, msg, i) {
			res.failed++
			return nil
		}
		elapsed += rep.Elapsed
		sends += clk.sends
		goodput = append(goodput, rep.GoodputBps())
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.set(res)
	perSend := ratio(elapsed.Seconds(), float64(sends))
	m.set(res, perSend)
	res.info["session_s_per_send"] = perSend
	var sum float64
	for _, g := range goodput {
		sum += g
	}
	res.metrics["goodput_bps"] = ratio(sum, float64(len(goodput)))
	res.info["transfers"] = float64(transfers)
	res.info["sends"] = float64(sends)
	res.info["message_bytes"] = float64(c.sizes.arqBytes)
	return res, nil
}

// ---- crowd -------------------------------------------------------------

// checkCrowd records a wrong output for an impossible medium report.
func checkCrowd(res *result, rep *medium.Report, seed int64) {
	if sent := rep.Senders * rep.FramesPerSender; rep.Delivered > sent || rep.Delivered < 0 {
		res.addWrong("crowd seed %d: %d frames delivered of %d sent", seed, rep.Delivered, sent)
	}
}

// runCrowd runs scenarios seed, seed+1, ... until the budget has
// passed; each scenario is one window.
func runCrowd(c runConfig) (*result, error) {
	res := newResult()
	m := newMeter(1, false)
	st := &setupTimer{ref: newHostRef(1), build: func() (func(), error) {
		cfg := crowdConfig(c.seed, c.sizes.crowdSenders, c.sizes.crowdFrames)
		if _, err := medium.NewEngine(cfg); err != nil {
			return nil, err
		}
		dec, err := core.NewDecoder(cfg.Params, wifi.CanonicalCompensation)
		if err != nil {
			return nil, err
		}
		_, err = link.NewStreaming(dec, 0, nil)
		return func() {}, err
	}}
	var sent, delivered int
	_, err := repeat(c.budget, func(i int) error {
		if err := st.sample(2); err != nil {
			return err
		}
		seed := c.seed + int64(i)
		cfg := crowdConfig(seed, c.sizes.crowdSenders, c.sizes.crowdFrames)
		w := m.ref.open()
		rep, err := link.RunMedium(cfg, nil)
		wall, scale := w.close()
		res.attempted++
		if err != nil {
			res.failed++
			res.addWrong("crowd seed %d: %v", seed, err)
			return nil
		}
		checkCrowd(res, rep, seed)
		m.add(rep.DurationSec, wall, scale)
		sent += rep.Senders * rep.FramesPerSender
		delivered += rep.Delivered
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.set(res)
	m.set(res, 1)
	res.info["frames_sent"] = float64(sent)
	res.info["frames_delivered"] = float64(delivered)
	return res, nil
}
