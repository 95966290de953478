package link

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"symbee/internal/splitmix"
)

// The downlink golden harness pins the reverse channel the same
// way golden_test.go pins the decode path: committed fixtures of the
// exact ack event sequences — under coalescing, AckRepeat duplicates
// and collision draws — that a scripted schedule must produce, byte
// identical at every polling cadence. Regenerate with -update (the
// flag is shared with the decode fixtures).

// downGoldenFile is the committed fixture in testdata.
const downGoldenFile = "downlink_golden.json"

// downGoldenSteps are the Arrivals polling cadences every scenario must
// reproduce byte-identically (0 polls once at the horizon).
var downGoldenSteps = []time.Duration{time.Millisecond, 7 * time.Millisecond, 0}

// downOp is one step of a scenario schedule.
type downOp struct {
	// at is the op instant (for collide, the forward frame's start).
	at time.Duration
	// collide marks a forward-frame transmission over [at, at+span];
	// otherwise the op is an ack generation.
	collide bool
	span    time.Duration
	seq     byte
	drop    bool
}

// downScenario is one seeded scenario recipe.
type downScenario struct {
	name            string
	wall, air, base time.Duration
	repeat          int
	ideal           bool
	lossSeed        int64 // 0 = lossless; else splitmix reverse-loss stream
	collideSeed     int64 // 0 = no collisions; else splitmix collision stream
	ops             []downOp
	horizon         time.Duration
}

// downScenarios are the committed recipes: serialization + coalescing,
// AckRepeat duplicates under reverse loss, collision draws against
// forward frames, and the ideal (zero-quanta) downlink.
func downScenarios() []downScenario {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return []downScenario{
		{
			name: "coalesce", wall: ms(10), air: ms(2), base: ms(1), repeat: 1,
			ops: []downOp{
				{at: 0, seq: 1},
				{at: ms(2), seq: 2}, // queued behind seq 1
				{at: ms(4), seq: 3}, // replaces seq 2 before it starts
				{at: ms(30), seq: 4},
				{at: ms(32), seq: 5, drop: true}, // scripted full loss
			},
			horizon: ms(80),
		},
		{
			name: "repeat-loss", wall: ms(8), air: ms(3), base: ms(2), repeat: 3,
			lossSeed: 11,
			ops: []downOp{
				{at: 0, seq: 1},
				{at: ms(40), seq: 2},
				{at: ms(41), seq: 3}, // coalesces seq 2
			},
			horizon: ms(150),
		},
		{
			name: "collide", wall: ms(12), air: ms(6), base: ms(1), repeat: 2,
			collideSeed: 21,
			ops: []downOp{
				{at: 0, seq: 1},
				{at: ms(5), collide: true, span: ms(10)},
				{at: ms(30), seq: 2},
				{at: ms(31), collide: true, span: ms(8)},
				{at: ms(60), collide: true, span: ms(20)},
			},
			horizon: ms(120),
		},
		{
			name: "ideal", repeat: 2, ideal: true,
			ops: []downOp{
				{at: ms(1), seq: 1},
				{at: ms(2), seq: 2},
				{at: ms(3), seq: 3},
			},
			horizon: ms(10),
		},
	}
}

// downGoldenEvent is the serialized form of one ack arrival.
type downGoldenEvent struct {
	Seq   byte  `json:"seq"`
	GenNS int64 `json:"gen_ns"`
	AtNS  int64 `json:"at_ns"`
}

// downGoldenLedger is the serialized ledger.
type downGoldenLedger struct {
	AcksSent          int   `json:"acks_sent"`
	AcksCoalesced     int   `json:"acks_coalesced"`
	AcksDropped       int   `json:"acks_dropped"`
	AckCollisions     int   `json:"ack_collisions"`
	ForwardCollisions int   `json:"forward_collisions"`
	AirtimeNS         int64 `json:"airtime_ns"`
}

// downGoldenResult is one committed scenario outcome.
type downGoldenResult struct {
	Name   string            `json:"name"`
	Events []downGoldenEvent `json:"events"`
	Ledger downGoldenLedger  `json:"ledger"`
}

// runDownScenario replays sc, polling Arrivals every step (0 = once at
// the horizon), and returns the flattened outcome.
func runDownScenario(t *testing.T, sc downScenario, step time.Duration) downGoldenResult {
	t.Helper()
	spec := DownSpec{Repeat: sc.repeat}
	if !sc.ideal {
		spec.Timing = DownTiming{Wall: sc.wall, Air: sc.air, Base: sc.base}
	}
	if sc.lossSeed != 0 {
		r := splitmix.New(sc.lossSeed, splitmix.ReverseStream)
		spec.DropCopy = func() bool { return r.Float64() < 0.3 }
	}
	if sc.collideSeed != 0 {
		spec.Collide = splitmix.New(sc.collideSeed, splitmix.CollisionStream)
	}
	s, err := NewDownStack(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := downGoldenResult{Name: sc.name, Events: []downGoldenEvent{}}
	record := func(evs []TimedEvent) {
		for _, ev := range evs {
			res.Events = append(res.Events, downGoldenEvent{
				Seq: ev.Seq, GenNS: int64(ev.Gen), AtNS: int64(ev.At),
			})
		}
	}
	now := time.Duration(0)
	poll := func(until time.Duration) {
		if step > 0 {
			for now+step <= until {
				now += step
				record(s.Arrivals(now))
			}
		}
		now = until
	}
	for _, op := range sc.ops {
		poll(op.at)
		if op.collide {
			end := op.at + op.span
			s.Advance(end)
			s.CollideForward(op.at, end)
			poll(end)
			continue
		}
		s.Generate(op.at, op.seq, op.drop)
	}
	poll(sc.horizon)
	record(s.Arrivals(sc.horizon))
	led := s.Ledger()
	res.Ledger = downGoldenLedger{
		AcksSent:          led.AcksSent,
		AcksCoalesced:     led.AcksCoalesced,
		AcksDropped:       led.AcksDropped,
		AckCollisions:     led.AckCollisions,
		ForwardCollisions: led.ForwardCollisions,
		AirtimeNS:         int64(led.Airtime),
	}
	return res
}

// TestDownlinkGoldenTraces pins every scenario's ack event sequence and
// ledger against the committed fixture, at every polling cadence.
func TestDownlinkGoldenTraces(t *testing.T) {
	var results []downGoldenResult
	for _, sc := range downScenarios() {
		base := runDownScenario(t, sc, downGoldenSteps[0])
		for _, step := range downGoldenSteps[1:] {
			got := runDownScenario(t, sc, step)
			if !downResultsEqual(base, got) {
				t.Errorf("%s: cadence %v diverged from %v:\n%+v\nvs\n%+v",
					sc.name, step, downGoldenSteps[0], got, base)
			}
		}
		results = append(results, base)
	}
	path := filepath.Join(goldenDir, downGoldenFile)
	blob, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	if *update {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("downlink golden fixture missing (regenerate with -update): %v", err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("downlink traces diverged from committed fixture %s:\n%s", path, blob)
	}
}

// downResultsEqual compares two scenario outcomes exactly.
func downResultsEqual(a, b downGoldenResult) bool {
	if a.Name != b.Name || a.Ledger != b.Ledger || len(a.Events) != len(b.Events) {
		return false
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			return false
		}
	}
	return true
}
