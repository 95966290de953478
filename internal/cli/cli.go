// Package cli deduplicates the flag and configuration plumbing the
// command-line tools share: capture-input selection (trace file, trace
// on stdin, raw IQ on stdin), sample-rate → receiver-parameter mapping,
// the common seed/workers knobs, and the JSON artifact writer the bench
// tools emit their results through. Keeping these in one place makes
// every tool accept the same spellings with the same defaults.
package cli

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"symbee/internal/core"
	"symbee/internal/trace"
)

// ParamsForRate maps a capture sample rate to the receiver parameter
// set every tool resolves the same way.
func ParamsForRate(rate float64) (core.Params, error) {
	switch rate {
	case 20e6: //symbee:ignore floatcmp -- rate is a flag-parsed literal matched exactly: near-20e6 rates must hit the error branch, not round into it
		return core.Params20(), nil
	case 40e6: //symbee:ignore floatcmp -- same exact-match contract as the 20e6 arm
		return core.Params40(), nil
	}
	return core.Params{}, fmt.Errorf("sample rate %v unsupported (want 20e6 or 40e6)", rate)
}

// ParamsForTrace resolves the receiver parameters for a loaded capture.
func ParamsForTrace(tr *trace.Trace) (core.Params, error) {
	return ParamsForRate(tr.SampleRate)
}

// Input is the shared capture-input configuration: a trace file ("-"
// for stdin), or — when enabled — raw interleaved complex64 IQ on
// stdin at an explicit rate.
type Input struct {
	// Path is the trace file ("-" reads a trace from stdin).
	Path string
	// Raw switches stdin to raw complex64 LE IQ (RegisterInput with
	// raw=true only).
	Raw bool
	// Rate is the sample rate assumed for raw input, Hz.
	Rate float64

	// stdin is the raw/stdin source; defaults to os.Stdin (tests
	// substitute).
	stdin io.Reader
}

// RegisterInput adds the capture-input flags to fs: always -in, and
// with raw also -raw and -rate. The returned Input is resolved by Load
// after fs.Parse.
func RegisterInput(fs *flag.FlagSet, raw bool) *Input {
	in := &Input{stdin: os.Stdin}
	fs.StringVar(&in.Path, "in", "", "trace file to read (\"-\" for stdin)")
	if raw {
		fs.BoolVar(&in.Raw, "raw", false, "read raw interleaved complex64 LE IQ from stdin instead of a trace")
		fs.Float64Var(&in.Rate, "rate", 20e6, "sample rate for -raw input, Hz")
	}
	return in
}

// Load resolves the configured input to a capture.
func (in *Input) Load() (*trace.Trace, error) {
	src := in.stdin
	if src == nil {
		src = os.Stdin
	}
	if in.Raw {
		iq, err := ReadRawIQ(src)
		if err != nil {
			return nil, err
		}
		return &trace.Trace{Kind: trace.KindIQ, SampleRate: in.Rate, IQ: iq}, nil
	}
	switch in.Path {
	case "":
		return nil, errors.New("need -in trace file")
	case "-":
		return trace.Read(src)
	default:
		return trace.Load(in.Path)
	}
}

// ReadRawIQ consumes interleaved little-endian complex64 pairs to EOF.
func ReadRawIQ(r io.Reader) ([]complex128, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var iq []complex128
	buf := make([]byte, 8)
	for {
		if n, err := io.ReadFull(br, buf); err != nil {
			if errors.Is(err, io.EOF) {
				return iq, nil
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, fmt.Errorf("raw input ends mid-sample (%d bytes over)", n)
			}
			return nil, err
		}
		re := math.Float32frombits(binary.LittleEndian.Uint32(buf))
		im := math.Float32frombits(binary.LittleEndian.Uint32(buf[4:]))
		iq = append(iq, complex(float64(re), float64(im)))
	}
}

// ParseIntList parses a comma-separated list of positive integers
// ("8,64,256") — the spelling sweep-width flags share.
func ParseIntList(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad list entry %q in %q", part, s)
		}
		if v < 1 {
			return nil, fmt.Errorf("non-positive list entry %d in %q", v, s)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, errors.New("empty int list")
	}
	return out, nil
}

// RegisterSeed adds the standard -seed flag (default 1, the value every
// seeded tool starts from).
func RegisterSeed(fs *flag.FlagSet) *int64 {
	return fs.Int64("seed", 1, "random seed")
}

// RegisterWorkers adds the standard -workers flag (0 = GOMAXPROCS).
func RegisterWorkers(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
}

// WriteJSON writes v as indented JSON with a trailing newline to path —
// the artifact convention of every bench tool. An empty path is a
// silent no-op; the returned bool reports whether a file was written.
func WriteJSON(path string, v any) (bool, error) {
	if path == "" {
		return false, nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	return true, nil
}
