package link

import (
	"math/rand"
	"testing"

	"symbee/internal/core"
	"symbee/internal/wifi"
)

// TestStackSteadyStateZeroAlloc pins the refactor's hot-path guarantee
// at the Stack level (the stream package pins it again through its
// Receiver wrapper): once warm, pushing IQ and draining events on the
// hunting steady state allocates nothing, instrumented or not.
func TestStackSteadyStateZeroAlloc(t *testing.T) {
	p := core.Params20()
	rng := rand.New(rand.NewSource(55))
	noise := make([]complex128, 4096)
	for i := range noise {
		noise[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	dec, err := core.NewDecoder(p, wifi.CanonicalCompensation)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		metrics *Metrics
	}{
		{"uninstrumented", nil},
		{"instrumented", NewMetrics()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := NewStreaming(dec, 1, tc.metrics)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				st.PushIQ(noise)
				st.Drain()
			}
			allocs := testing.AllocsPerRun(100, func() {
				st.PushIQ(noise)
				st.Drain()
			})
			if allocs != 0 {
				t.Errorf("steady-state PushIQ+Drain allocates %.1f times per chunk, want 0", allocs)
			}
		})
	}
}
