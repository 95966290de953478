package wifi

import (
	"math"
	"testing"

	"symbee/internal/dsp"
)

func TestChannelFrequencies(t *testing.T) {
	if f, err := WiFiChannelFreq(1); err != nil || f != 2412e6 {
		t.Errorf("WiFi ch 1 = %v, %v", f, err)
	}
	if f, err := WiFiChannelFreq(13); err != nil || f != 2472e6 {
		t.Errorf("WiFi ch 13 = %v, %v", f, err)
	}
	if f, err := ZigBeeChannelFreq(11); err != nil || f != 2405e6 {
		t.Errorf("ZigBee ch 11 = %v, %v", f, err)
	}
	if f, err := ZigBeeChannelFreq(26); err != nil || f != 2480e6 {
		t.Errorf("ZigBee ch 26 = %v, %v", f, err)
	}
	for _, c := range []int{0, 14} {
		if _, err := WiFiChannelFreq(c); err == nil {
			t.Errorf("WiFi ch %d should be invalid", c)
		}
	}
	for _, k := range []int{10, 27} {
		if _, err := ZigBeeChannelFreq(k); err == nil {
			t.Errorf("ZigBee ch %d should be invalid", k)
		}
	}
}

// wifiBandwidth20 and zigbeeBandwidth are the occupied bandwidths of a
// 20 MHz WiFi channel and a ZigBee channel.
const (
	wifiBandwidth20 = 20e6
	zigbeeBandwidth = 2e6
)

// overlaps reports whether ZigBee channel zk falls inside WiFi channel
// wc's 20 MHz passband (the condition for cross-observability).
func overlaps(wc, zk int) (bool, error) {
	fw, err := WiFiChannelFreq(wc)
	if err != nil {
		return false, err
	}
	fz, err := ZigBeeChannelFreq(zk)
	if err != nil {
		return false, err
	}
	return math.Abs(fz-fw) <= (wifiBandwidth20+zigbeeBandwidth)/2, nil
}

// compensationPhase returns the constant that must be added to every
// measured ∠p[n] to undo the channel frequency offset fDelta:
// wrap(2π·fΔ·0.8 µs). Appendix B proves this is +4π/5 for every
// overlapping WiFi/ZigBee channel pair, because all offsets are
// congruent to 3 MHz modulo the 5 MHz channel spacing and a 5 MHz
// offset rotates an exact 4 cycles over the 0.8 µs lag.
func compensationPhase(fDelta float64) float64 {
	return dsp.WrapPhase(2 * math.Pi * fDelta * AutocorrLag)
}

func TestPaperChannelExample(t *testing.T) {
	// Appendix B example: ZigBee ch 12 (2.410 GHz) is 2 MHz below WiFi
	// ch 1 (2.412 GHz).
	off, err := FreqOffset(1, 12)
	if err != nil {
		t.Fatal(err)
	}
	if off != -2e6 {
		t.Errorf("offset = %v, want -2 MHz", off)
	}
}

func TestOffsetsCongruentTo3Mod5MHz(t *testing.T) {
	// Appendix B: the offset between a WiFi channel and any overlapping
	// ZigBee channel is (3 + 5m) MHz.
	for wc := MinWiFiChannel; wc <= MaxWiFiChannel; wc++ {
		for zk := MinZigBeeChannel; zk <= MaxZigBeeChannel; zk++ {
			ov, err := overlaps(wc, zk)
			if err != nil {
				t.Fatal(err)
			}
			if !ov {
				continue
			}
			off, err := FreqOffset(wc, zk)
			if err != nil {
				t.Fatal(err)
			}
			mhz := off / 1e6
			mod := math.Mod(math.Mod(mhz-3, 5)+5, 5)
			if math.Abs(mod) > 1e-9 {
				t.Errorf("WiFi %d / ZigBee %d: offset %v MHz not ≡ 3 (mod 5)", wc, zk, mhz)
			}
		}
	}
}

func TestCFOCompensationConstant(t *testing.T) {
	// Appendix B's punchline: the compensation is +4π/5 for EVERY
	// overlapping channel pair.
	want := 4 * math.Pi / 5
	checked := 0
	for wc := MinWiFiChannel; wc <= MaxWiFiChannel; wc++ {
		for zk := MinZigBeeChannel; zk <= MaxZigBeeChannel; zk++ {
			if ov, _ := overlaps(wc, zk); !ov {
				continue
			}
			off, _ := FreqOffset(wc, zk)
			comp := compensationPhase(off)
			if math.Abs(dsp.WrapPhase(comp-want)) > 1e-6 {
				t.Errorf("WiFi %d / ZigBee %d: compensation %v, want 4π/5", wc, zk, comp)
			}
			checked++
		}
	}
	if checked < 30 {
		t.Errorf("only %d overlapping pairs checked; expected many more", checked)
	}
	if math.Abs(CanonicalCompensation-want) > 1e-12 {
		t.Errorf("CanonicalCompensation = %v", CanonicalCompensation)
	}
}

func TestEveryWiFiChannelOverlapsFourZigBeeChannels(t *testing.T) {
	for wc := MinWiFiChannel; wc <= MaxWiFiChannel; wc++ {
		count := 0
		for zk := MinZigBeeChannel; zk <= MaxZigBeeChannel; zk++ {
			if ov, _ := overlaps(wc, zk); ov {
				count++
			}
		}
		if count < 4 {
			t.Errorf("WiFi ch %d overlaps only %d ZigBee channels", wc, count)
		}
	}
}
