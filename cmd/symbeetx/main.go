// Command symbeetx encodes a SymBee message and emits, at choice, the
// ZigBee payload bytes (to place in a commodity node's packet), the raw
// bit string, or a complex-baseband IQ trace file for replay through
// symbeerx.
//
// Usage:
//
//	symbeetx -msg "hello wifi"                # payload bytes as hex
//	symbeetx -msg hi -seq 3 -trace out.sbtr   # IQ trace of the packet
//	symbeetx -bits 010110 -trace out.sbtr     # raw-bit mode
//	symbeetx -msg hi -rate 40e6 -trace out.sbtr
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"symbee"
	"symbee/internal/cli"
	"symbee/internal/trace"
)

func main() {
	var (
		msg   = flag.String("msg", "", "message bytes to send as one frame")
		bits  = flag.String("bits", "", "raw bit string (e.g. 0101) instead of a frame")
		seq   = flag.Int("seq", 0, "frame sequence number")
		flags = flag.Int("flags", 0, "frame flag nibble")
		rate  = flag.Float64("rate", 20e6, "receiver sample rate the trace targets")
		out   = flag.String("trace", "", "write an IQ trace file instead of printing hex")
	)
	flag.Parse()
	if err := run(os.Stdout, *msg, *bits, byte(*seq), byte(*flags), *rate, *out); err != nil {
		fmt.Fprintln(os.Stderr, "symbeetx:", err)
		os.Exit(1)
	}
}

// run encodes the message or bit string and prints its payload bytes to
// w, or writes its IQ trace to out and reports that on w.
func run(w io.Writer, msg, bitStr string, seq, flags byte, rate float64, out string) error {
	if msg == "" && bitStr == "" {
		return fmt.Errorf("need -msg or -bits")
	}

	var payload []byte
	var err error
	if bitStr != "" {
		bits := make([]byte, len(bitStr))
		for i, c := range bitStr {
			switch c {
			case '0':
				bits[i] = 0
			case '1':
				bits[i] = 1
			default:
				return fmt.Errorf("bit string may only contain 0/1, got %q", c)
			}
		}
		payload, err = symbee.EncodeBits(bits)
	} else {
		payload, err = symbee.EncodeFrame(&symbee.Frame{Seq: seq, Flags: flags & 0x0F, Data: []byte(msg)})
	}
	if err != nil {
		return err
	}

	if out == "" {
		fmt.Fprintf(w, "ZigBee payload (%d bytes, 1 SymBee bit per byte):\n", len(payload))
		for i, b := range payload {
			if i > 0 && i%16 == 0 {
				fmt.Fprintln(w)
			}
			fmt.Fprintf(w, "%02X ", b)
		}
		fmt.Fprintln(w)
		return nil
	}

	p, err := cli.ParamsForRate(rate)
	if err != nil {
		return err
	}
	link, err := symbee.NewLink(p, 0)
	if err != nil {
		return err
	}
	sig, err := link.PayloadToSignal(payload)
	if err != nil {
		return err
	}
	tr := &trace.Trace{Kind: trace.KindIQ, SampleRate: rate, IQ: sig}
	if err := tr.Save(out); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s: %d IQ samples (%.1f µs at %.0f Msps)\n",
		out, tr.Len(), tr.Duration()*1e6, rate/1e6)
	return nil
}
