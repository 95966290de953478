package mac

import (
	"math"
	"math/rand"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Error(err)
	}
	bad := []Config{
		{MinBE: -1, MaxBE: 5, MaxBackoffs: 4},
		{MinBE: 5, MaxBE: 3, MaxBackoffs: 4},
		{MinBE: 3, MaxBE: 5, MaxBackoffs: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
	if _, err := NewSim(bad[0], rand.New(rand.NewSource(1))); err == nil {
		t.Error("NewSim should reject invalid config")
	}
}

func TestSinglePacketDeliversCleanly(t *testing.T) {
	s, err := NewSim(DefaultConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run([]Packet{{Node: 0, Arrival: 0.001, Airtime: 4e-3}})
	if len(res) != 1 || res[0].Outcome != Delivered {
		t.Fatalf("results = %+v", res)
	}
	// Delay = backoff + CCA + turnaround + airtime ≥ airtime.
	if res[0].Delay < 4e-3 || res[0].Delay > 4e-3+8*UnitBackoff+CCADuration+Turnaround {
		t.Errorf("delay = %v", res[0].Delay)
	}
}

func TestSameNodeSerializes(t *testing.T) {
	s, err := NewSim(DefaultConfig(), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	// Two packets from one node arriving together must never collide:
	// the MAC serializes them.
	res := s.Run([]Packet{
		{Node: 0, Arrival: 0, Airtime: 3e-3},
		{Node: 0, Arrival: 0, Airtime: 3e-3},
	})
	for i, r := range res {
		if r.Outcome != Delivered {
			t.Errorf("packet %d: %v", i, r.Outcome)
		}
	}
	if res[1].TxStart < res[0].TxStart+res[0].Packet.Airtime {
		t.Error("second packet started before the first finished")
	}
}

func TestSimultaneousNodesCanCollide(t *testing.T) {
	// Two nodes with identical arrivals collide whenever they draw the
	// same backoff; over many trials both outcomes must occur, and
	// collisions must be symmetric (both packets marked).
	collisions, deliveries := 0, 0
	for seed := int64(0); seed < 200; seed++ {
		s, err := NewSim(DefaultConfig(), rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run([]Packet{
			{Node: 0, Arrival: 0, Airtime: 4e-3},
			{Node: 1, Arrival: 0, Airtime: 4e-3},
		})
		c := 0
		for _, r := range res {
			if r.Outcome == Collided {
				c++
			}
		}
		switch c {
		case 0:
			deliveries++
		case 2:
			collisions++
		default:
			t.Fatalf("seed %d: asymmetric collision count %d", seed, c)
		}
	}
	if collisions == 0 || deliveries == 0 {
		t.Errorf("collisions=%d deliveries=%d; expected a mix", collisions, deliveries)
	}
}

func TestCSMADefersToVisibleTraffic(t *testing.T) {
	// Why collisions happen at all in CSMA: only because backoffs end
	// inside each other's CCA/turnaround blind spot. If node B arrives
	// while A is already ON AIR, B must defer and deliver cleanly.
	for seed := int64(0); seed < 50; seed++ {
		s, err := NewSim(DefaultConfig(), rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run([]Packet{
			{Node: 0, Arrival: 0, Airtime: 30e-3},
			// Arrives well inside A's 30 ms transmission.
			{Node: 1, Arrival: 15e-3, Airtime: 3e-3},
		})
		for i, r := range res {
			if r.Outcome == Collided {
				t.Fatalf("seed %d packet %d collided; CCA should have deferred", seed, i)
			}
		}
	}
}

func TestWiFiBackgroundBlocksAccess(t *testing.T) {
	s, err := NewSim(DefaultConfig(), rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the medium with WiFi: nearly all ZigBee attempts fail
	// channel access.
	s.AddWiFiBackground(1.0, 0.995, 50e-3)
	packets := PoissonArrivals(4, 20, 0.5, 3e-3, rand.New(rand.NewSource(5)))
	res := s.Run(packets)
	st := Summarize(res)
	if st.AccessFailures < st.Attempted*5/10 {
		t.Errorf("only %d/%d access failures under a saturated medium", st.AccessFailures, st.Attempted)
	}
}

func TestLowLoadDeliversAlmostEverything(t *testing.T) {
	s, err := NewSim(DefaultConfig(), rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	// 4 nodes × 5 pkt/s × 3.5 ms ≈ 7% offered load.
	packets := PoissonArrivals(4, 5, 2.0, 3.5e-3, rand.New(rand.NewSource(7)))
	res := s.Run(packets)
	st := Summarize(res)
	if ratio := float64(st.Delivered) / float64(st.Attempted); ratio < 0.95 {
		t.Errorf("delivery ratio = %v at 7%% load", ratio)
	}
	if st.MeanDelay <= 0 || st.MeanDelay > 0.05 {
		t.Errorf("mean delay = %v", st.MeanDelay)
	}
}

func TestContentionGrowsWithNodes(t *testing.T) {
	loss := func(nodes int) float64 {
		s, err := NewSim(DefaultConfig(), rand.New(rand.NewSource(8)))
		if err != nil {
			t.Fatal(err)
		}
		packets := PoissonArrivals(nodes, 30, 1.0, 3.5e-3, rand.New(rand.NewSource(9)))
		st := Summarize(s.Run(packets))
		return 1 - float64(st.Delivered)/float64(st.Attempted)
	}
	few, many := loss(2), loss(24)
	if many <= few {
		t.Errorf("loss should grow with contention: %v (2 nodes) vs %v (24 nodes)", few, many)
	}
}

func TestPoissonArrivalsStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	packets := PoissonArrivals(3, 100, 10, 1e-3, rng)
	// Expect ≈ 3 × 100 × 10 = 3000 packets.
	if len(packets) < 2600 || len(packets) > 3400 {
		t.Errorf("packet count = %d, want ≈3000", len(packets))
	}
	perNode := map[int]int{}
	for _, p := range packets {
		if p.Arrival < 0 || p.Arrival >= 10 {
			t.Fatalf("arrival %v outside horizon", p.Arrival)
		}
		perNode[p.Node]++
	}
	if len(perNode) != 3 {
		t.Errorf("nodes = %d", len(perNode))
	}
}

func TestSummarizeDelayMath(t *testing.T) {
	st := Summarize([]Result{
		{Outcome: Delivered, Delay: 0.01, Packet: Packet{Airtime: 2e-3}},
		{Outcome: Delivered, Delay: 0.03, Packet: Packet{Airtime: 2e-3}},
		{Outcome: Collided},
		{Outcome: ChannelAccessFailure},
	})
	if st.Attempted != 4 || st.Delivered != 2 || st.Collided != 1 || st.AccessFailures != 1 {
		t.Errorf("stats = %+v", st)
	}
	if math.Abs(st.MeanDelay-0.02) > 1e-12 {
		t.Errorf("mean delay = %v", st.MeanDelay)
	}
	if math.Abs(st.AirtimeUsed-4e-3) > 1e-12 {
		t.Errorf("airtime = %v", st.AirtimeUsed)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	// Run draws every node's first backoff from the shared generator
	// before the first event: the draw order must not follow map order.
	packets := PoissonArrivals(10, 40, 0.5, 3e-3, rand.New(rand.NewSource(11)))
	run := func() []Result {
		s, err := NewSim(DefaultConfig(), rand.New(rand.NewSource(12)))
		if err != nil {
			t.Fatal(err)
		}
		return s.Run(packets)
	}
	want := run()
	for i := 1; i < 5; i++ {
		got := run()
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("run %d, packet %d: %+v, first run %+v", i, k, got[k], want[k])
			}
		}
	}
}
