package zigbee

import "fmt"

// IEEE 802.15.4 2.4 GHz O-QPSK PHY constants.
const (
	// ChipsPerSymbol is the DSSS spreading factor: each 4-bit symbol maps
	// to 32 chips (Table I of the paper, Table 73 of IEEE 802.15.4-2006).
	ChipsPerSymbol = 32

	// NumSymbols is the size of the symbol alphabet (one per nibble).
	NumSymbols = 16

	// ChipRate is the 2.4 GHz PHY chip rate in chips/second.
	ChipRate = 2e6

	// ChipSlot is the duration of one chip slot in seconds (0.5 µs).
	// Each half-sine pulse spans two chip slots (1 µs).
	ChipSlot = 1 / ChipRate

	// SymbolDuration is 32 chips at 2 Mchip/s = 16 µs.
	SymbolDuration = ChipsPerSymbol / ChipRate

	// SymbolRate is the 62.5 ksymbol/s symbol rate.
	SymbolRate = 1 / SymbolDuration

	// BitsPerSymbol is the number of data bits carried per symbol.
	BitsPerSymbol = 4

	// BitRate is the ZigBee data rate: 62.5 ksym/s × 4 bit = 250 kbps.
	BitRate = SymbolRate * BitsPerSymbol
)

// symbol0 is the chip sequence for data symbol 0 from IEEE 802.15.4
// Table 73, chip c0 first. The paper reproduces it in Table I.
const symbol0 = "11011001110000110101001000101110"

// chipTable holds the 16 spreading sequences, chipTable[s][k] being chip
// k (0 or 1) of symbol s. Sequences 1-7 are right cyclic shifts of
// sequence 0 by 4 chips per step; sequences 8-15 are sequences 0-7 with
// every odd-indexed chip inverted (which conjugates the OQPSK waveform).
var chipTable = buildChipTable()

func buildChipTable() [NumSymbols][ChipsPerSymbol]byte {
	var t [NumSymbols][ChipsPerSymbol]byte
	for k := 0; k < ChipsPerSymbol; k++ {
		t[0][k] = symbol0[k] - '0'
	}
	for s := 1; s < 8; s++ {
		for k := 0; k < ChipsPerSymbol; k++ {
			t[s][k] = t[s-1][(k+ChipsPerSymbol-4)%ChipsPerSymbol]
		}
	}
	for s := 8; s < NumSymbols; s++ {
		for k := 0; k < ChipsPerSymbol; k++ {
			c := t[s-8][k]
			if k%2 == 1 {
				c ^= 1
			}
			t[s][k] = c
		}
	}
	return t
}

// ChipSequence returns a copy of the 32-chip spreading sequence for
// symbol s. A symbol is a nibble by construction, so only the low four
// bits of s are significant; higher bits are masked off.
func ChipSequence(s byte) []byte {
	seq := make([]byte, ChipsPerSymbol)
	copy(seq, chipTable[s&0x0F][:])
	return seq
}

// ChipString renders the chip sequence of symbol s as a 32-character
// binary string, matching the notation of the paper's Table I.
func ChipString(s byte) string {
	seq := ChipSequence(s)
	buf := make([]byte, ChipsPerSymbol)
	for i, c := range seq {
		buf[i] = '0' + c
	}
	return string(buf)
}

// SpreadSymbols concatenates the chip sequences of the given symbols.
// As in ChipSequence, only the low nibble of each symbol is used.
func SpreadSymbols(symbols []byte) []byte {
	chips := make([]byte, 0, len(symbols)*ChipsPerSymbol)
	for _, s := range symbols {
		chips = append(chips, chipTable[s&0x0F][:]...)
	}
	return chips
}

// BytesToSymbols expands data into its 4-bit symbol stream,
// most-significant nibble first (byte 0x67 → symbols 6 then 7), the
// order the SymBee paper writes its codewords in.
func BytesToSymbols(data []byte) []byte {
	symbols := make([]byte, 0, len(data)*2)
	for _, b := range data {
		symbols = append(symbols, b>>4, b&0x0F)
	}
	return symbols
}

// SymbolsToBytes packs a symbol stream back into bytes,
// most-significant nibble first. The symbol count must be even.
func SymbolsToBytes(symbols []byte) ([]byte, error) {
	if len(symbols)%2 != 0 {
		return nil, fmt.Errorf("zigbee: odd symbol count %d", len(symbols))
	}
	data := make([]byte, len(symbols)/2)
	for i := range data {
		data[i] = symbols[2*i]<<4 | symbols[2*i+1]&0x0F
	}
	return data, nil
}
