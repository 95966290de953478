// Package trace records and replays signal captures — IQ sample or
// phase-value traces — in a compact binary format, the file format the
// symbeetx, symbeerx, symbeescan and symbeestream tools exchange. (The
// trace-driven interference study of Figs. 20-21 mixes its captures in
// memory, with channel.MixAtSINR.)
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// Kind discriminates the payload type of a trace.
type Kind uint8

// Trace payload kinds.
const (
	// KindIQ holds complex64-precision IQ samples.
	KindIQ Kind = iota + 1
	// KindPhase holds float64 phase values.
	KindPhase
)

const (
	magic   = "SBTR"
	version = 1
)

// Trace is a recorded capture.
type Trace struct {
	// Kind says whether IQ or Phases is populated.
	Kind Kind
	// SampleRate in Hz.
	SampleRate float64
	// IQ samples (Kind == KindIQ).
	IQ []complex128
	// Phases values (Kind == KindPhase).
	Phases []float64
}

// Errors returned by the reader.
var (
	ErrBadMagic   = errors.New("trace: bad magic (not a SymBee trace)")
	ErrBadVersion = errors.New("trace: unsupported version")
	ErrBadKind    = errors.New("trace: unknown payload kind")
)

// Len returns the number of samples or phase values.
func (t *Trace) Len() int {
	if t.Kind == KindIQ {
		return len(t.IQ)
	}
	return len(t.Phases)
}

// Duration returns the covered timespan in seconds.
func (t *Trace) Duration() float64 {
	if t.SampleRate <= 0 {
		return 0
	}
	return float64(t.Len()) / t.SampleRate
}

// Write serializes the trace.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	header := []any{uint8(version), uint8(t.Kind), t.SampleRate, uint64(t.Len())}
	for _, v := range header {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	switch t.Kind {
	case KindIQ:
		buf := make([]byte, 8)
		for _, v := range t.IQ {
			binary.LittleEndian.PutUint32(buf, math.Float32bits(float32(real(v))))
			binary.LittleEndian.PutUint32(buf[4:], math.Float32bits(float32(imag(v))))
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	case KindPhase:
		buf := make([]byte, 8)
		for _, v := range t.Phases {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("%w: %d", ErrBadKind, t.Kind)
	}
	return bw.Flush()
}

// Read deserializes a trace.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	head := make([]byte, 4)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, err
	}
	if string(head) != magic {
		return nil, ErrBadMagic
	}
	var (
		ver  uint8
		kind uint8
		rate float64
		n    uint64
	)
	for _, p := range []any{&ver, &kind, &rate, &n} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, err
		}
	}
	if ver != version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	t := &Trace{Kind: Kind(kind), SampleRate: rate}
	const maxSamples = 1 << 30 // 1 Gi entries: refuse absurd headers
	if n > maxSamples {
		return nil, fmt.Errorf("trace: implausible sample count %d", n)
	}
	// The payload slice grows as entries arrive, from at most readBlock:
	// a header that claims more samples than its payload holds costs
	// memory in proportion to the payload, not to the claim.
	const readBlock = 4096
	switch t.Kind {
	case KindIQ:
		t.IQ = make([]complex128, 0, min(n, readBlock))
	case KindPhase:
		t.Phases = make([]float64, 0, min(n, readBlock))
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadKind, kind)
	}
	buf := make([]byte, 8)
	for i := uint64(0); i < n; i++ {
		_, err := io.ReadFull(br, buf)
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("trace: header claims %d samples, payload holds %d: %w", n, i, io.ErrUnexpectedEOF)
		}
		if err != nil {
			return nil, err
		}
		if t.Kind == KindPhase {
			t.Phases = append(t.Phases, math.Float64frombits(binary.LittleEndian.Uint64(buf)))
			continue
		}
		re := math.Float32frombits(binary.LittleEndian.Uint32(buf))
		im := math.Float32frombits(binary.LittleEndian.Uint32(buf[4:]))
		t.IQ = append(t.IQ, complex(float64(re), float64(im)))
	}
	return t, nil
}

// Save writes the trace to a file.
func (t *Trace) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a trace from a file.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
