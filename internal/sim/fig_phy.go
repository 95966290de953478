package sim

import (
	"fmt"
	"math"
	"sort"

	"symbee/internal/dsp"
	"symbee/internal/wifi"
	"symbee/internal/zigbee"
)

// Fig6PairSearch exhaustively scores all 256 ordered ZigBee symbol
// pairs by the length of the stable phase run they produce when
// cross-observed (the analysis behind Fig. 6: (6,7) and (E,F) are the
// unique optimal pair per sign).
func Fig6PairSearch(opts Options) (*Table, error) {
	mod, err := zigbee.NewModulator(20e6)
	if err != nil {
		return nil, err
	}
	fe, err := wifi.NewFrontEnd(20e6)
	if err != nil {
		return nil, err
	}
	type pairScore struct {
		a, b   byte
		length int
		value  float64
	}
	scores := make([]pairScore, 0, 256)
	for a := byte(0); a < 16; a++ {
		for b := byte(0); b < 16; b++ {
			x := mod.ModulateSymbols([]byte{a, b})
			ph := fe.PhaseStream(x)
			start, length := dsp.LongestStableRun(ph, 0.05)
			scores = append(scores, pairScore{a, b, length, ph[start]})
		}
	}
	sort.Slice(scores, func(i, j int) bool {
		if scores[i].length != scores[j].length {
			return scores[i].length > scores[j].length
		}
		if scores[i].a != scores[j].a {
			return scores[i].a < scores[j].a
		}
		return scores[i].b < scores[j].b
	})
	t := &Table{
		Title:   "Fig. 6 — Exhaustive symbol-pair search: longest stable phase",
		Note:    "top 10 of 256 ordered pairs; SymBee uses (6,7)=bit 0 and (E,F)=bit 1",
		Columns: []string{"rank", "pair", "stable run (samples)", "stable run (µs)", "phase (rad)", "phase/π"},
	}
	for i := 0; i < 10 && i < len(scores); i++ {
		s := scores[i]
		t.AddRow(i+1,
			fmt.Sprintf("(%X,%X)", s.a, s.b),
			s.length,
			float64(s.length)/20.0,
			s.value,
			s.value/math.Pi)
	}
	return t, nil
}

// Fig7StablePhase reports the cross-observed phase pattern of SymBee
// bits 0 and 1 sent back to back (Figs. 5 and 7): the location, length
// and value of every stable run.
func Fig7StablePhase(opts Options) (*Table, error) {
	mod, err := zigbee.NewModulator(20e6)
	if err != nil {
		return nil, err
	}
	fe, err := wifi.NewFrontEnd(20e6)
	if err != nil {
		return nil, err
	}
	// Bits 0 then 1 = payload bytes 0x67, 0xEF.
	x := mod.ModulateBytes([]byte{0x67, 0xEF})
	ph := fe.PhaseStream(x)
	t := &Table{
		Title:   "Fig. 7 — Phase ∠p[n] of SymBee bits 0,1 sent back to back",
		Note:    "stable runs of the phase stream; bits live in the ±4π/5 runs (840 ns units at 20 Msps)",
		Columns: []string{"start (sample)", "length", "value (rad)", "value/π", "carries"},
	}
	i := 0
	for i < len(ph) {
		ref := ph[i]
		j := i + 1
		for j < len(ph) && dsp.PhaseDistance(ph[j], ref) <= 0.05 {
			j++
		}
		if j-i >= 40 {
			carries := "-"
			if math.Abs(math.Abs(ref)-core4Pi5) < 0.05 && j-i >= 84 {
				if ref >= 0 {
					carries = "bit 0"
				} else {
					carries = "bit 1"
				}
			}
			t.AddRow(i, j-i, ref, ref/math.Pi, carries)
		}
		i = j
	}
	return t, nil
}

const core4Pi5 = 4 * math.Pi / 5
