// Package zigbee implements the IEEE 802.15.4 2.4 GHz physical layer
// that SymBee transmits over: the 16-ary symbol→chip spreading table
// (DSSS), the half-sine OQPSK modulator, PPDU framing (preamble, SFD,
// PHR, PSDU with CRC-16 FCS), and a chip-correlation receiver used for
// the ZigBee side of cross-technology broadcast.
//
// The modulator synthesizes complex baseband directly at the receiver's
// sample rate (20 or 40 Msps) so that the WiFi front-end model in package
// wifi can consume it without resampling; the chip rate is the standard
// 2 Mchip/s (chip slot 0.5 µs, half-sine pulse 1 µs, symbol 16 µs).
//
// Every byte goes on air most-significant nibble first, the paper's
// notation: its bit-0 codeword, byte 0x67, is symbols (6,7). IEEE
// 802.15.4 hardware sends the least-significant nibble first, so there
// the paper's 0x67 goes on air as byte 0x76: a commodity node sends
// symbols (6,7) when handed 0x76. Only BytesToSymbols and
// SymbolsToBytes decide the order; no caller chooses it.
package zigbee
