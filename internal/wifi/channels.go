package wifi

import (
	"fmt"
	"math"
)

// 2.4 GHz ISM band channel plans.
const (
	// MinWiFiChannel and MaxWiFiChannel bound the 2.4 GHz WiFi channels
	// with the regular 5 MHz spacing (channel 14 is excluded: its
	// 2.484 GHz center breaks the spacing and it is disallowed for
	// 802.11g almost everywhere).
	MinWiFiChannel = 1
	MaxWiFiChannel = 13

	// MinZigBeeChannel and MaxZigBeeChannel bound the 802.15.4 2.4 GHz
	// channel page (channels 11-26).
	MinZigBeeChannel = 11
	MaxZigBeeChannel = 26
)

// WiFiChannelFreq returns the center frequency in Hz of 2.4 GHz WiFi
// channel c (1-13).
func WiFiChannelFreq(c int) (float64, error) {
	if c < MinWiFiChannel || c > MaxWiFiChannel {
		return 0, fmt.Errorf("wifi: channel %d out of range [%d,%d]", c, MinWiFiChannel, MaxWiFiChannel)
	}
	return 2412e6 + 5e6*float64(c-1), nil
}

// ZigBeeChannelFreq returns the center frequency in Hz of 802.15.4
// channel k (11-26).
func ZigBeeChannelFreq(k int) (float64, error) {
	if k < MinZigBeeChannel || k > MaxZigBeeChannel {
		return 0, fmt.Errorf("wifi: zigbee channel %d out of range [%d,%d]", k, MinZigBeeChannel, MaxZigBeeChannel)
	}
	return 2405e6 + 5e6*float64(k-MinZigBeeChannel), nil
}

// FreqOffset returns fΔ = fZigBee − fWiFi in Hz for the given channel
// pair: the frequency at which the ZigBee signal appears in the WiFi
// receiver's baseband.
//
//symbee:ignore reach -- the Appendix B tests of wifi and the CFO sweeps of core and stream call it; testutil cannot hold it, since wifi's own tests would import a package importing wifi
func FreqOffset(wc, zk int) (float64, error) {
	fw, err := WiFiChannelFreq(wc)
	if err != nil {
		return 0, err
	}
	fz, err := ZigBeeChannelFreq(zk)
	if err != nil {
		return 0, err
	}
	return fz - fw, nil
}

// CanonicalCompensation is the channel-independent CFO compensation of
// Appendix B: +4π/5 radians.
var CanonicalCompensation = 4 * math.Pi / 5
