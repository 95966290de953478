package link

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Load())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(10, 100, 1000)
	for _, v := range []float64{1, 10, 11, 99, 100, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d", s.Count)
	}
	if want := 1.0 + 10 + 11 + 99 + 100 + 5000; s.Sum != want {
		t.Errorf("sum = %v, want %v", s.Sum, want)
	}
	wantCounts := []uint64{2, 3, 0, 1} // ≤10, ≤100, ≤1000, overflow
	for i, b := range s.Buckets {
		if b.Count != wantCounts[i] {
			t.Errorf("bucket %d (le %v) count = %d, want %d", i, b.Le, b.Count, wantCounts[i])
		}
	}
	if !math.IsInf(s.Buckets[3].Le, 1) {
		t.Errorf("last bucket le = %v, want +Inf", s.Buckets[3].Le)
	}
	if mean := s.Sum / 6; s.Mean != mean {
		t.Errorf("mean = %v, want %v", s.Mean, mean)
	}
}

func TestHistogramConcurrentSum(t *testing.T) {
	h := NewHistogram(1e6)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(2)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 || s.Sum != 16000 {
		t.Errorf("count/sum = %d/%v, want 8000/16000", s.Count, s.Sum)
	}
}

func TestHistogramNormalizesBounds(t *testing.T) {
	// Unsorted and duplicated bounds are sorted and deduplicated, so the
	// histogram is always well-formed.
	h := NewHistogram(10, 5, 10)
	for _, v := range []float64{1, 7, 50} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if len(s.Buckets) != 3 { // ≤5, ≤10, overflow
		t.Fatalf("buckets = %d, want 3", len(s.Buckets))
	}
	if s.Buckets[0].Le != 5 || s.Buckets[1].Le != 10 {
		t.Errorf("bounds = %v, %v, want 5, 10", s.Buckets[0].Le, s.Buckets[1].Le)
	}
	wantCounts := []uint64{1, 1, 1}
	for i, b := range s.Buckets {
		if b.Count != wantCounts[i] {
			t.Errorf("bucket %d count = %d, want %d", i, b.Count, wantCounts[i])
		}
	}
}

func TestSnapshotJSONSchema(t *testing.T) {
	m := NewMetrics()
	m.ChunksIn.Add(3)
	m.FramesDecoded.Add(2)
	m.PhaseNanos.Observe(5e4)
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"chunks_in", "samples_in", "phases_in", "drops", "phases_produced",
		"locks", "frames_decoded", "frames_failed", "streams_opened",
		"streams_flushed", "phase_ns", "decode_ns", "chunk_ns",
	} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("snapshot JSON missing %q", key)
		}
	}
	if decoded["chunks_in"].(float64) != 3 {
		t.Errorf("chunks_in = %v", decoded["chunks_in"])
	}
	// The overflow bucket must serialize as the string "+Inf", since
	// JSON cannot carry an infinity.
	if !strings.Contains(string(raw), `"le":"+Inf"`) {
		t.Errorf("snapshot JSON lacks +Inf overflow bucket: %s", raw)
	}
}
