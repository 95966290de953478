// Package mac provides the unslotted IEEE 802.15.4 CSMA/CA medium
// access layer that real SymBee senders run under, and an event-driven
// multi-node airtime simulation. The paper positions SymBee as the
// upstream (convergecast) path of IoT deployments — many ZigBee sensors
// reporting to one WiFi sink — which makes contention between SymBee
// senders (and with background WiFi) part of the system's real
// throughput story.
package mac

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
)

// IEEE 802.15.4 unslotted CSMA/CA constants (2.4 GHz PHY timings).
const (
	// UnitBackoff is aUnitBackoffPeriod: 20 symbols = 320 µs.
	UnitBackoff = 320e-6
	// CCADuration is 8 symbols = 128 µs.
	CCADuration = 128e-6
	// Turnaround is aTurnaroundTime: 12 symbols = 192 µs.
	Turnaround = 192e-6
	// DefaultMinBE and DefaultMaxBE bound the backoff exponent.
	DefaultMinBE = 3
	DefaultMaxBE = 5
	// DefaultMaxBackoffs is macMaxCSMABackoffs.
	DefaultMaxBackoffs = 4
)

// Config tunes the CSMA/CA engine.
type Config struct {
	MinBE       int
	MaxBE       int
	MaxBackoffs int
}

// DefaultConfig returns the standard parameter set.
func DefaultConfig() Config {
	return Config{MinBE: DefaultMinBE, MaxBE: DefaultMaxBE, MaxBackoffs: DefaultMaxBackoffs}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.MinBE < 0 || c.MaxBE < c.MinBE:
		return fmt.Errorf("mac: invalid backoff exponents [%d,%d]", c.MinBE, c.MaxBE)
	case c.MaxBackoffs < 0:
		return fmt.Errorf("mac: negative MaxBackoffs %d", c.MaxBackoffs)
	}
	return nil
}

// Packet is one MAC-layer transmission attempt.
type Packet struct {
	// Node that owns the packet.
	Node int
	// Arrival time at the MAC queue, seconds.
	Arrival float64
	// Airtime of the PHY frame, seconds.
	Airtime float64
}

// Outcome classifies a packet's fate.
type Outcome int

// Packet fates.
const (
	// Delivered cleanly: no overlap with any other transmission.
	Delivered Outcome = iota + 1
	// Collided with another transmission (both corrupted).
	Collided
	// ChannelAccessFailure: CSMA gave up after MaxBackoffs busy CCAs.
	ChannelAccessFailure
)

// Result records one packet's journey.
type Result struct {
	Packet  Packet
	Outcome Outcome
	// TxStart is when transmission began (Delivered/Collided only).
	TxStart float64
	// Delay is TxStart+Airtime − Arrival for delivered packets.
	Delay float64
}

// busyInterval is one occupied stretch of the medium.
type busyInterval struct {
	start, end float64
	wifi       bool
}

// Sim is an event-driven multi-node CSMA/CA simulation over a shared
// medium. Background WiFi traffic occupies the medium (ZigBee CCA hears
// it and defers) and is itself immune to ZigBee collisions (WiFi power
// dominates at its own receiver).
type Sim struct {
	cfg Config
	rng *rand.Rand
	// busy holds all scheduled transmissions, kept sorted by start.
	busy []busyInterval
}

// NewSim builds a simulation.
func NewSim(cfg Config, rng *rand.Rand) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Sim{cfg: cfg, rng: rng}, nil
}

// AddWiFiBackground occupies the medium with WiFi bursts of the given
// duty cycle over [0, horizon).
func (s *Sim) AddWiFiBackground(horizon, dutyCycle, burstDuration float64) {
	if dutyCycle <= 0 || burstDuration <= 0 {
		return
	}
	meanGap := burstDuration * (1 - dutyCycle) / dutyCycle
	t := s.rng.ExpFloat64() * meanGap
	for t < horizon {
		s.busy = append(s.busy, busyInterval{start: t, end: t + burstDuration, wifi: true})
		t += burstDuration + s.rng.ExpFloat64()*meanGap
	}
	sort.Slice(s.busy, func(i, j int) bool { return s.busy[i].start < s.busy[j].start })
}

// mediumBusyAt reports whether any transmission overlaps [t, t+d).
func (s *Sim) mediumBusyAt(t, d float64) bool {
	for _, b := range s.busy {
		if b.start < t+d && t < b.end {
			return true
		}
	}
	return false
}

// ccaEvent is one pending clear-channel assessment in the event queue.
type ccaEvent struct {
	time float64
	pkt  int // index into the result slice
}

// eventQueue is a min-heap of CCA events ordered by time.
type eventQueue []ccaEvent

func (q eventQueue) Len() int           { return len(q) }
func (q eventQueue) Less(i, j int) bool { return q[i].time < q[j].time }
func (q eventQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)        { *q = append(*q, x.(ccaEvent)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}
func (q *eventQueue) push(e ccaEvent)  { heap.Push(q, e) }
func (q *eventQueue) pop() ccaEvent    { return heap.Pop(q).(ccaEvent) }
func (q *eventQueue) emptyQueue() bool { return len(*q) == 0 }

// Run processes the given packets (any order) through CSMA/CA as a
// discrete-event simulation — CCA decisions are evaluated in global
// time order, so every assessment sees all transmissions committed
// before it — and reports each packet's fate. Packets from the same
// node are serialized in arrival order.
func (s *Sim) Run(packets []Packet) []Result {
	ordered := make([]Packet, len(packets))
	copy(ordered, packets)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Arrival < ordered[j].Arrival })

	results := make([]Result, len(ordered))
	type state struct {
		be       int
		attempts int
	}
	states := make([]state, len(ordered))
	// Per-node FIFO of packet indices.
	nodeQueue := map[int][]int{}
	for i, pkt := range ordered {
		results[i] = Result{Packet: pkt, Outcome: ChannelAccessFailure}
		nodeQueue[pkt.Node] = append(nodeQueue[pkt.Node], i)
	}

	var queue eventQueue
	schedule := func(idx int, from float64) {
		slots := 0
		if be := states[idx].be; be > 0 {
			slots = s.rng.Intn(1 << be)
		}
		queue.push(ccaEvent{time: from + float64(slots)*UnitBackoff, pkt: idx})
	}
	// releaseNext starts CSMA for a node's next queued packet once the
	// current one finishes at time tf.
	releaseNext := func(node int, tf float64) {
		q := nodeQueue[node]
		if len(q) == 0 {
			return
		}
		idx := q[0]
		nodeQueue[node] = q[1:]
		states[idx].be = s.cfg.MinBE
		start := ordered[idx].Arrival
		if tf > start {
			start = tf
		}
		schedule(idx, start)
	}
	// Each release draws a backoff slot from the shared generator, so
	// nodes start in ascending order, not in map order.
	nodes := make([]int, 0, len(nodeQueue))
	for node := range nodeQueue {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	for _, node := range nodes {
		releaseNext(node, 0)
	}

	type zigTx struct {
		busyInterval
		owner int
	}
	var zig []zigTx

	for !queue.emptyQueue() {
		e := queue.pop()
		idx := e.pkt
		pkt := ordered[idx]
		if !s.mediumBusyAt(e.time, CCADuration) {
			// Clear channel: transmit after CCA + turnaround.
			start := e.time + CCADuration + Turnaround
			iv := busyInterval{start: start, end: start + pkt.Airtime}
			s.busy = append(s.busy, iv)
			zig = append(zig, zigTx{busyInterval: iv, owner: idx})
			results[idx].Outcome = Delivered
			results[idx].TxStart = start
			results[idx].Delay = start + pkt.Airtime - pkt.Arrival
			releaseNext(pkt.Node, start+pkt.Airtime)
			continue
		}
		// Busy: back off harder or give up.
		states[idx].attempts++
		if states[idx].attempts > s.cfg.MaxBackoffs {
			releaseNext(pkt.Node, e.time+CCADuration)
			continue // Outcome stays ChannelAccessFailure
		}
		if states[idx].be < s.cfg.MaxBE {
			states[idx].be++
		}
		schedule(idx, e.time+CCADuration)
	}

	// Collision marking: two ZigBee transmissions overlapping in time
	// corrupt each other (no capture effect); overlap with WiFi bursts
	// corrupts the ZigBee packet at the SymBee receiver only if the
	// burst arrived after CCA (hidden in our model: CCA already
	// deferred to visible WiFi, so any overlap means the burst started
	// mid-transmission).
	sort.Slice(zig, func(i, j int) bool { return zig[i].start < zig[j].start })
	for i := range results {
		if results[i].Outcome != Delivered {
			continue
		}
		a := busyInterval{start: results[i].TxStart, end: results[i].TxStart + results[i].Packet.Airtime}
		for _, b := range zig {
			if b.start >= a.end {
				break
			}
			if b.owner != i && overlaps(a, b.busyInterval) {
				results[i].Outcome = Collided
				break
			}
		}
	}
	return results
}

func overlaps(a, b busyInterval) bool {
	return a.start < b.end && b.start < a.end
}

// Stats aggregates a batch of results.
type Stats struct {
	Attempted, Delivered, Collided, AccessFailures int
	// MeanDelay over delivered packets, seconds.
	MeanDelay float64
	// AirtimeUsed by delivered packets, seconds.
	AirtimeUsed float64
}

// Summarize folds results into stats.
func Summarize(results []Result) Stats {
	var st Stats
	var delaySum float64
	for _, r := range results {
		st.Attempted++
		switch r.Outcome {
		case Delivered:
			st.Delivered++
			delaySum += r.Delay
			st.AirtimeUsed += r.Packet.Airtime
		case Collided:
			st.Collided++
		case ChannelAccessFailure:
			st.AccessFailures++
		}
	}
	if st.Delivered > 0 {
		st.MeanDelay = delaySum / float64(st.Delivered)
	}
	return st
}

// PoissonArrivals generates packet arrivals for `nodes` senders, each
// with exponential inter-arrival times of the given mean rate
// (packets/second), over [0, horizon).
func PoissonArrivals(nodes int, rate, horizon, airtime float64, rng *rand.Rand) []Packet {
	var packets []Packet
	for n := 0; n < nodes; n++ {
		t := rng.ExpFloat64() / rate
		for t < horizon {
			packets = append(packets, Packet{Node: n, Arrival: t, Airtime: airtime})
			t += rng.ExpFloat64() / rate
		}
	}
	return packets
}
