package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestIQRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := &Trace{Kind: KindIQ, SampleRate: 20e6, IQ: make([]complex128, 1000)}
	for i := range tr.IQ {
		tr.IQ[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindIQ || got.SampleRate != 20e6 || got.Len() != 1000 {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range tr.IQ {
		// float32 storage: ~1e-7 relative precision.
		if d := real(tr.IQ[i]) - real(got.IQ[i]); math.Abs(d) > 1e-6 {
			t.Fatalf("sample %d mismatch", i)
		}
	}
	if d := tr.Duration() - 1000.0/20e6; math.Abs(d) > 1e-15 {
		t.Errorf("Duration = %v", tr.Duration())
	}
}

func TestPhaseRoundTripFile(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := &Trace{Kind: KindPhase, SampleRate: 20e6, Phases: make([]float64, 500)}
	for i := range tr.Phases {
		tr.Phases[i] = rng.NormFloat64()
	}
	path := filepath.Join(t.TempDir(), "x.sbtr")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Phases {
		if got.Phases[i] != tr.Phases[i] {
			t.Fatalf("phase %d mismatch", i)
		}
	}
}

// chunkedReader yields at most chunk bytes per Read call, exercising
// readers that deliver data in arbitrary small pieces (pipes, sockets,
// throttled replays).
type chunkedReader struct {
	data  []byte
	chunk int
}

func (c *chunkedReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := c.chunk
	if n > len(p) {
		n = len(p)
	}
	if n > len(c.data) {
		n = len(c.data)
	}
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

func TestChunkedReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	iq := &Trace{Kind: KindIQ, SampleRate: 20e6, IQ: make([]complex128, 777)}
	for i := range iq.IQ {
		iq.IQ[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	ph := &Trace{Kind: KindPhase, SampleRate: 40e6, Phases: make([]float64, 1234)}
	for i := range ph.Phases {
		ph.Phases[i] = rng.NormFloat64()
	}
	for _, tr := range []*Trace{iq, ph} {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 7, 4096} {
			got, err := Read(&chunkedReader{data: buf.Bytes(), chunk: chunk})
			if err != nil {
				t.Fatalf("kind %d chunk %d: %v", tr.Kind, chunk, err)
			}
			if got.Kind != tr.Kind || got.SampleRate != tr.SampleRate || got.Len() != tr.Len() {
				t.Fatalf("kind %d chunk %d: header mismatch: %+v", tr.Kind, chunk, got)
			}
			switch tr.Kind {
			case KindIQ:
				for i := range tr.IQ {
					if math.Abs(real(tr.IQ[i])-real(got.IQ[i])) > 1e-6 ||
						math.Abs(imag(tr.IQ[i])-imag(got.IQ[i])) > 1e-6 {
						t.Fatalf("chunk %d: IQ sample %d mismatch", chunk, i)
					}
				}
			case KindPhase:
				for i := range tr.Phases {
					if got.Phases[i] != tr.Phases[i] {
						t.Fatalf("chunk %d: phase %d mismatch", chunk, i)
					}
				}
			}
		}
	}
}

func TestReadErrors(t *testing.T) {
	t.Run("bad magic", func(t *testing.T) {
		if _, err := Read(bytes.NewReader([]byte("NOPE00000000000000000000"))); !errors.Is(err, ErrBadMagic) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		tr := &Trace{Kind: KindPhase, SampleRate: 1, Phases: []float64{1, 2, 3}}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(bytes.NewReader(buf.Bytes()[:buf.Len()-4])); err == nil {
			t.Error("expected error on truncated trace")
		}
	})
	t.Run("bad kind on write", func(t *testing.T) {
		tr := &Trace{Kind: 99, SampleRate: 1}
		var buf bytes.Buffer
		if err := tr.Write(&buf); !errors.Is(err, ErrBadKind) {
			t.Errorf("err = %v", err)
		}
	})
	for _, rate := range []float64{math.NaN(), math.Inf(1), 0, -20e6} {
		t.Run(fmt.Sprintf("rate %v", rate), func(t *testing.T) {
			tr := &Trace{Kind: KindIQ, SampleRate: rate, IQ: make([]complex128, 4)}
			var buf bytes.Buffer
			if err := tr.Write(&buf); err != nil {
				t.Fatal(err)
			}
			if got, err := Read(&buf); err == nil || !strings.Contains(err.Error(), "sample rate") {
				t.Errorf("Read = %+v, %v; want a sample-rate error", got, err)
			}
		})
	}
	t.Run("missing file", func(t *testing.T) {
		if _, err := Load(filepath.Join(t.TempDir(), "missing.sbtr")); err == nil {
			t.Error("expected error for missing file")
		}
	})
}

// TestReadShortPayloadAllocatesWhatArrives reads headers that claim
// 2^22 entries (64 MiB of IQ) over a payload of 10: Read must fail with
// io.ErrUnexpectedEOF, name both counts and allocate for what arrived.
func TestReadShortPayloadAllocatesWhatArrives(t *testing.T) {
	const claim = 1 << 22
	for _, tr := range []*Trace{
		{Kind: KindIQ, SampleRate: 20e6, IQ: make([]complex128, 10)},
		{Kind: KindPhase, SampleRate: 20e6, Phases: make([]float64, 10)},
	} {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		// The entry count is the header's last field, bytes 14–21.
		raw := buf.Bytes()
		binary.LittleEndian.PutUint64(raw[14:22], claim)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("kind %d: err = %v, want io.ErrUnexpectedEOF", tr.Kind, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "4194304") || !strings.Contains(msg, " 10") {
			t.Errorf("kind %d: error %q does not name the claimed and read counts", tr.Kind, msg)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("kind %d: Read allocated %d bytes for a 10-entry payload", tr.Kind, grew)
		}
	}
}
