// Command symbeerx decodes SymBee messages from trace files produced by
// symbeetx (or any IQ/phase capture in the trace format). It can
// optionally impair the capture with noise and a carrier offset first,
// to demonstrate decoding under realistic conditions.
//
// Usage:
//
//	symbeerx -in packet.sbtr
//	symbeerx -in packet.sbtr -snr 6 -cfo 3e6
//	symbeerx -in packet.sbtr -bits 6     # raw-bit mode: decode 6 bits
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"symbee"
	"symbee/internal/channel"
	"symbee/internal/cli"
	"symbee/internal/trace"
)

func main() {
	var (
		input = cli.RegisterInput(flag.CommandLine, false)
		seed  = cli.RegisterSeed(flag.CommandLine)
		nBit  = flag.Int("bits", 0, "decode this many raw bits instead of a frame")
		snr   = flag.Float64("snr", 0, "add noise at this SNR in dB before decoding (0: no noise)")
		cfo   = flag.Float64("cfo", 0, "apply this carrier offset in Hz before decoding")
	)
	flag.Parse()
	if err := run(os.Stdout, input, *nBit, *snr, *cfo, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "symbeerx:", err)
		os.Exit(1)
	}
}

// run decodes the input's capture, after the optional impairments, and
// prints the frame (or nBits raw bits) to w.
func run(w io.Writer, input *cli.Input, nBits int, snr, cfo float64, seed int64) error {
	tr, err := input.Load()
	if err != nil {
		return err
	}
	p, err := cli.ParamsForTrace(tr)
	if err != nil {
		return err
	}

	comp := 0.0
	if cfo != 0 {
		comp = symbee.CanonicalCompensation
	}
	link, err := symbee.NewLink(p, comp)
	if err != nil {
		return err
	}

	var phases []float64
	switch tr.Kind {
	case trace.KindIQ:
		iq := tr.IQ
		if cfo != 0 {
			channel.ApplyCFO(iq, cfo, tr.SampleRate)
		}
		if snr != 0 {
			rng := rand.New(rand.NewSource(seed))
			channel.AddNoiseAtSNR(iq, snr, rng)
			fmt.Fprintf(w, "impaired capture: SNR %.1f dB, CFO %+.1f MHz\n", snr, cfo/1e6)
		}
		phases = link.Phases(iq)
	case trace.KindPhase:
		phases = tr.Phases
	default:
		return fmt.Errorf("unknown trace kind %d", tr.Kind)
	}

	dec := link.Decoder()
	if nBits > 0 {
		bits, err := dec.DecodeBits(phases, nBits)
		if err != nil {
			return err
		}
		fmt.Fprint(w, "bits: ")
		for _, b := range bits {
			fmt.Fprint(w, b)
		}
		fmt.Fprintln(w)
		return nil
	}

	frame, err := dec.DecodeFrame(phases)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "frame seq=%d flags=%X data=%q\n", frame.Seq, frame.Flags, frame.Data)
	return nil
}
