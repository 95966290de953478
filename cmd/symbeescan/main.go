// Command symbeescan inspects an IQ trace and reports everything this
// repository knows how to find in the 2.4 GHz band: WiFi OFDM frames,
// ZigBee packets (with MAC parsing), SymBee messages, and summary
// statistics of the idle-listening phase stream — a little tcpdump for
// the cross-technology ether.
//
// Usage:
//
//	symbeetx -msg hello -trace x.sbtr && symbeescan -in x.sbtr
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"

	"symbee"
	"symbee/internal/cli"
	"symbee/internal/dsp"
	"symbee/internal/trace"
	"symbee/internal/wifi"
	"symbee/internal/zigbee"
)

func main() {
	var (
		input   = cli.RegisterInput(flag.CommandLine, false)
		verbose = flag.Bool("v", false, "print per-detection detail")
	)
	flag.Parse()
	if err := run(input, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "symbeescan:", err)
		os.Exit(1)
	}
}

func run(input *cli.Input, verbose bool) error {
	tr, err := input.Load()
	if err != nil {
		return err
	}
	if tr.Kind != trace.KindIQ {
		return fmt.Errorf("scan needs an IQ trace (kind %d)", tr.Kind)
	}
	fmt.Printf("trace: %d samples, %.1f µs at %.0f Msps, mean power %.3g\n\n",
		tr.Len(), tr.Duration()*1e6, tr.SampleRate/1e6, dsp.Power(tr.IQ))

	if err := scanWiFi(tr, verbose); err != nil {
		return err
	}
	if err := scanZigBee(tr, verbose); err != nil {
		return err
	}
	if err := scanSymBee(tr); err != nil {
		return err
	}
	return phaseSummary(tr)
}

func scanWiFi(tr *trace.Trace, verbose bool) error {
	fe, err := wifi.NewFrontEnd(tr.SampleRate)
	if err != nil {
		fmt.Printf("WiFi: front-end unavailable at this rate: %v\n\n", err)
		return nil
	}
	starts := fe.DetectPackets(tr.IQ, 0.7, 4*fe.Lag())
	fmt.Printf("WiFi: %d OFDM frame(s) detected\n", len(starts))
	if verbose && tr.SampleRate == 20e6 { //symbee:ignore floatcmp -- configured rate constant, never computed
		rx, err := wifi.NewReceiver()
		if err != nil {
			return err
		}
		for _, s := range starts {
			got, err := rx.Receive(tr.IQ[s:], 1)
			if err != nil {
				fmt.Printf("  @%d: preamble only (%v)\n", s, err)
				continue
			}
			fmt.Printf("  @%d: CFO %+.1f kHz, EVM %.2f\n", s, got.CFO/1e3, got.SymbolEVM)
		}
	}
	fmt.Println()
	return nil
}

func scanZigBee(tr *trace.Trace, verbose bool) error {
	demod, err := zigbee.NewDemodulator(tr.SampleRate)
	if err != nil {
		fmt.Printf("ZigBee: demodulator unavailable at this rate: %v\n\n", err)
		return nil
	}
	payload, err := demod.Receive(tr.IQ)
	if err != nil {
		fmt.Printf("ZigBee: no packet (%v)\n\n", err)
		return nil
	}
	fmt.Printf("ZigBee: packet with %d-byte MAC payload\n", len(payload))
	if mpdu, err := zigbee.ParseMPDU(payload); err == nil {
		fmt.Printf("  MAC: type=%d seq=%d PAN=%04X dst=%04X src=%04X, %d-byte MSDU\n",
			mpdu.Type, mpdu.Seq, mpdu.PANID, mpdu.Dest, mpdu.Src, len(mpdu.Payload))
		payload = mpdu.Payload
	} else if verbose {
		fmt.Printf("  (payload is not a short-addressed MPDU: %v)\n", err)
	}
	if f, err := symbee.DecodeBroadcastPayload(payload); err == nil {
		fmt.Printf("  SymBee (ZigBee side): seq=%d flags=%X data=%q\n", f.Seq, f.Flags, f.Data)
	}
	fmt.Println()
	return nil
}

func scanSymBee(tr *trace.Trace) error {
	p, err := cli.ParamsForTrace(tr)
	if err != nil {
		fmt.Printf("SymBee: %v\n\n", err)
		return nil
	}
	link, err := symbee.NewLink(p, 0)
	if err != nil {
		return err
	}
	phases := link.Phases(tr.IQ)
	anchor, err := link.Decoder().CapturePreamble(phases)
	if err != nil {
		fmt.Printf("SymBee (WiFi side): no preamble (%v)\n\n", err)
		return nil
	}
	fmt.Printf("SymBee (WiFi side): preamble at phase index %d\n", anchor)
	if f, err := link.Decoder().DecodeFrame(phases); err == nil {
		fmt.Printf("  frame: seq=%d flags=%X data=%q\n", f.Seq, f.Flags, f.Data)
	} else {
		fmt.Printf("  frame decode: %v (raw-bit message? try symbeerx -bits N)\n", err)
	}
	fmt.Println()
	return nil
}

func phaseSummary(tr *trace.Trace) error {
	lag := int(math.Round(tr.SampleRate * wifi.AutocorrLag))
	phases := dsp.PhaseDiffStream(tr.IQ, lag)
	if phases == nil {
		return errors.New("trace too short for a phase stream")
	}
	neg, nonneg := dsp.SignCounts(phases)
	// How much of the stream sits near the SymBee stable values ±4π/5?
	nearStable := 0
	for _, phi := range phases {
		if dsp.PhaseDistance(math.Abs(phi), 4*math.Pi/5) < 0.1 {
			nearStable++
		}
	}
	fmt.Printf("phases: %d values, %.1f%% negative / %.1f%% nonnegative, %.1f%% within 0.1 rad of ±4π/5\n",
		len(phases),
		100*float64(neg)/float64(len(phases)),
		100*float64(nonneg)/float64(len(phases)),
		100*float64(nearStable)/float64(len(phases)))
	return nil
}
