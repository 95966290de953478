package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"symbee"
	"symbee/internal/core"
	"symbee/internal/link"
	"symbee/internal/reliable"
)

// testCorpusSamples is the busy_air corpus size the equivalence and
// generator tests decode: the full size, or an eighth of it in -short.
func testCorpusSamples() int {
	if testing.Short() {
		return fullSizes.corpusSamples / 8
	}
	return fullSizes.corpusSamples
}

// eventKey is the comparable content of one decode event.
type eventKey struct {
	kind        symbee.StreamEventKind
	anchor, end int
	seq         byte
	data        string
	err         string
}

func keyOf(ev core.StreamEvent) eventKey {
	k := eventKey{kind: ev.Kind, anchor: ev.Anchor, end: ev.End}
	if ev.Frame != nil {
		k.seq, k.data = ev.Frame.Seq, string(ev.Frame.Data)
	}
	if ev.Err != nil {
		k.err = ev.Err.Error()
	}
	return k
}

// The traced receive composition must see exactly what the public
// receiver sees, or its per-layer numbers describe another program.
func TestReceiveCompositionMatchesReceiver(t *testing.T) {
	cp, err := genCorpus(7, testCorpusSamples())
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{chunkSamples, 1000} {
		t.Run(fmt.Sprint(chunk), func(t *testing.T) {
			rx, err := symbee.NewReceiver(symbee.Params20())
			if err != nil {
				t.Fatal(err)
			}
			var st rxStats
			path, err := newRxPath(newTracer(0), &st)
			if err != nil {
				t.Fatal(err)
			}
			var want, got []eventKey
			for off := 0; off < len(cp.iq); off += chunk {
				iq := cp.iq[off:min(off+chunk, len(cp.iq))]
				if err := rx.PushIQ(iq); err != nil {
					t.Fatal(err)
				}
				for _, ev := range rx.Drain() {
					want = append(want, keyOf(ev.StreamEvent))
				}
				evs, err := path.push(iq)
				if err != nil {
					t.Fatal(err)
				}
				for _, ev := range evs {
					got = append(got, keyOf(ev))
				}
			}
			rx.Flush()
			for _, ev := range rx.Drain() {
				want = append(want, keyOf(ev.StreamEvent))
			}
			for _, ev := range path.flush() {
				got = append(got, keyOf(ev))
			}
			if len(want) == 0 {
				t.Fatal("receiver emitted no events")
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("composition emitted %d events, receiver %d; first difference at %d",
					len(got), len(want), firstDiff(got, want))
			}
			if st.frames != len(cp.frames) {
				t.Errorf("composition decoded %d frames, corpus has %d", st.frames, len(cp.frames))
			}
		})
	}
}

func firstDiff(a, b []eventKey) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// The traced crowd sink must credit exactly the frames link.RunMedium's
// own sink credits.
func TestCrowdSinkMatchesRunMedium(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		cfg := crowdConfig(seed, 8, 4)
		want, err := link.RunMedium(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		var st rxStats
		got, err := runCrowdTraced(cfg, newTracer(0), &st)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: traced report differs:\n got %+v\nwant %+v", seed, got, want)
		}
		if want.Delivered == 0 {
			t.Fatalf("seed %d: nothing delivered; the comparison is vacuous", seed)
		}
	}
}

// arqOutcome is everything a transfer leaves behind that tracing must
// not change.
type arqOutcome struct {
	report    symbee.SessionReport
	ledger    link.DownlinkLedger
	delivered [][]byte
	faults    [3]int
}

func arqRun(t *testing.T, seed int64, traced bool) arqOutcome {
	t.Helper()
	var wrap func(*symbee.SimLink) symbee.Transport
	if traced {
		tr := newTracer(1 << 12)
		sh, err := newShadow(tr, newRuntimeMeter(), reliable.ProfileSoak(seed))
		if err != nil {
			t.Fatal(err)
		}
		wrap = func(sl *symbee.SimLink) symbee.Transport {
			return &tracedLink{SimLink: sl, tr: tr, sh: sh}
		}
	}
	sl, sess, err := newARQSession(seed, wrap)
	if err != nil {
		t.Fatal(err)
	}
	msg := arqMessage(seed, 256)
	rep, err := sess.Send(context.Background(), msg)
	if err != nil {
		t.Fatalf("seed %d traced=%v: %v", seed, traced, err)
	}
	sl.Close()
	var out arqOutcome
	out.report = *rep
	out.ledger = sl.Duplex().Down().Ledger()
	out.delivered = sl.Messages()
	out.faults[0], out.faults[1], out.faults[2] = sl.FaultStats()
	if len(out.delivered) != 1 || !bytes.Equal(out.delivered[0], msg) {
		t.Fatalf("seed %d traced=%v: message not delivered intact", seed, traced)
	}
	return out
}

// Wrapping the transport and replaying every frame on the shadow must
// leave the transfer bit-identical: the shadow draws from no stream of
// the link's.
func TestTracedTransportLeavesARQUnchanged(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		plain, traced := arqRun(t, seed, false), arqRun(t, seed, true)
		if !reflect.DeepEqual(plain, traced) {
			t.Fatalf("seed %d: traced transfer differs:\n got %+v\nwant %+v", seed, traced, plain)
		}
		if plain.report.Retransmits == 0 {
			t.Errorf("seed %d: the soak profile caused no retransmission", seed)
		}
	}
}

// The shadow replays the link's frames through the same stages with the
// same fault schedule, so it must drop the same frames the link drops.
func TestShadowTracksLinkFaults(t *testing.T) {
	tr := newTracer(1 << 12)
	sh, err := newShadow(tr, newRuntimeMeter(), reliable.ProfileSoak(4))
	if err != nil {
		t.Fatal(err)
	}
	sl, sess, err := newARQSession(4, func(sl *symbee.SimLink) symbee.Transport {
		return &tracedLink{SimLink: sl, tr: tr, sh: sh}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Send(context.Background(), arqMessage(4, 256)); err != nil {
		t.Fatal(err)
	}
	lost, _, _ := sl.FaultStats()
	if sh.drops != lost {
		t.Errorf("shadow dropped %d frames, link lost %d", sh.drops, lost)
	}
	if sh.sends == 0 || sh.repeats == 0 {
		t.Errorf("shadow saw %d sends, %d repeats; want both > 0", sh.sends, sh.repeats)
	}
}
