package sim

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"symbee/internal/channel"
	"symbee/internal/core"
)

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:   "T",
		Note:    "n1\nn2",
		Columns: []string{"a", "bb"},
	}
	tb.AddRow(1, 2.34567)
	tb.AddRow("x", "y")
	out := tb.Render()
	for _, want := range []string{"T\n", "# n1", "# n2", "a", "bb", "2.346", "x"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q in:\n%s", want, out)
		}
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,bb\n1,2.346\n") {
		t.Errorf("CSV = %q", csv)
	}
}

func TestAlternatingBits(t *testing.T) {
	bits := AlternatingBits(5)
	want := []byte{0, 1, 0, 1, 0}
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("bits = %v", bits)
		}
	}
}

func TestOptionsPackets(t *testing.T) {
	if got := (Options{}).packets(60); got != 60 {
		t.Errorf("default = %d", got)
	}
	if got := (Options{Packets: 7}).packets(60); got != 7 {
		t.Errorf("override = %d", got)
	}
	if got := (Options{Short: true}).packets(60); got != 15 {
		t.Errorf("short = %d", got)
	}
	if got := (Options{Short: true, Packets: 8}).packets(60); got != 4 {
		t.Errorf("short small = %d", got)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(RunSpec{Params: core.Params20(), Bits: []byte{0}, Packets: 0}); err == nil {
		t.Error("expected error for zero packets")
	}
}

func TestRunCleanChannel(t *testing.T) {
	p := core.Params20()
	stats, err := Run(RunSpec{
		Params:  p,
		Bits:    AlternatingBits(20),
		Packets: 8,
		Seed:    1,
		ConfigFor: func(rng *rand.Rand) channel.Config {
			return channel.Config{
				SampleRate: p.SampleRate,
				SNRdB:      20,
				FreqOffset: channel.DefaultFreqOffset,
				Pad:        256,
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CaptureRate() != 1 {
		t.Errorf("capture rate = %v", stats.CaptureRate())
	}
	if stats.BER() != 0 {
		t.Errorf("BER = %v", stats.BER())
	}
	if got := stats.Throughput(p); math.Abs(got-31250) > 1 {
		t.Errorf("throughput = %v, want 31250", got)
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	p := core.Params20()
	spec := RunSpec{
		Params:  p,
		Bits:    AlternatingBits(20),
		Packets: 6,
		Seed:    42,
		ConfigFor: func(rng *rand.Rand) channel.Config {
			return channel.Config{
				SampleRate: p.SampleRate,
				SNRdB:      rng.Float64()*4 - 2,
				FreqOffset: channel.DefaultFreqOffset,
				Pad:        256,
			}
		},
	}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Captured != b.Captured || a.WrongBits != b.WrongBits {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestEquationBER(t *testing.T) {
	if got := EquationBER(0, 84); got != 0 {
		t.Errorf("EquationBER(0) = %v", got)
	}
	if got := EquationBER(1, 84); got != 1 {
		t.Errorf("EquationBER(1) = %v", got)
	}
	// Symmetry at 1/2: majority vote of an even window fails with
	// probability >= 1/2 at prEps = 1/2 (includes the tie).
	mid := EquationBER(0.5, 84)
	if mid < 0.5 || mid > 0.6 {
		t.Errorf("EquationBER(0.5) = %v", mid)
	}
	// Monotone in prEps.
	prev := 0.0
	for _, pe := range []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.45} {
		v := EquationBER(pe, 84)
		if v < prev {
			t.Errorf("EquationBER not monotone at %v: %v < %v", pe, v, prev)
		}
		prev = v
	}
	// The paper's design point: Prε=0.45 gives ≈20% BER; Prε=0.3 is
	// already negligible.
	if v := EquationBER(0.45, 84); v < 0.1 || v > 0.4 {
		t.Errorf("EquationBER(0.45) = %v", v)
	}
	if v := EquationBER(0.3, 84); v > 0.001 {
		t.Errorf("EquationBER(0.3) = %v", v)
	}
	// Doubling the window at equal prEps can only help.
	if EquationBER(0.4, 168) >= EquationBER(0.4, 84) {
		t.Error("168-window should beat 84-window at equal prEps")
	}
}

func TestMeasurePrEpsilonDecreasing(t *testing.T) {
	hi, err := MeasurePrEpsilon(10, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := MeasurePrEpsilon(-6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hi >= lo {
		t.Errorf("Prε should fall with SNR: %v at 10 dB vs %v at -6 dB", hi, lo)
	}
	if hi > 0.1 {
		t.Errorf("Prε(10 dB) = %v, want < 0.1", hi)
	}
	if lo < 0.3 {
		t.Errorf("Prε(-6 dB) = %v, want > 0.3", lo)
	}
}

func TestRegistryComplete(t *testing.T) {
	exps := Experiments()
	if len(exps) < 18 {
		t.Fatalf("only %d experiments registered", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Description == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	// Every paper figure is present.
	for _, id := range []string{"fig6", "fig7", "fig11", "fig12", "fig13", "fig14",
		"fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22a", "fig22b", "fig23"} {
		if !seen[id] {
			t.Errorf("missing figure experiment %s", id)
		}
	}
	if _, err := ByID("fig13"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("expected error for unknown id")
	}
}

func TestFig6TopPairs(t *testing.T) {
	tb, err := Fig6PairSearch(Options{Seed: 1, Short: true})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows[0][1] != "(6,7)" || tb.Rows[1][1] != "(E,F)" {
		t.Errorf("top pairs = %v, %v; want (6,7),(E,F)", tb.Rows[0][1], tb.Rows[1][1])
	}
}

func TestFig7RunsCarryBits(t *testing.T) {
	tb, err := Fig7StablePhase(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var carries []string
	for _, row := range tb.Rows {
		if row[4] != "-" {
			carries = append(carries, row[4])
		}
	}
	if len(carries) != 2 || carries[0] != "bit 0" || carries[1] != "bit 1" {
		t.Errorf("carried bits = %v", carries)
	}
}

func TestFig20PacketSurvivesBurst(t *testing.T) {
	tb, err := Fig20Interference(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if row[3] != "true" {
			t.Errorf("bit %s not decoded correctly under the burst", row[0])
		}
	}
}

func TestScenarioExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario sweeps are slow")
	}
	opts := Options{Seed: 1, Packets: 6}
	for _, id := range []string{"fig13", "fig18", "fig23"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := e.Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s: empty table", id)
		}
	}
}

func TestFig16SymBeeDominates(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison sweep is slow")
	}
	tb, err := Fig16Comparison(Options{Seed: 1, Packets: 8, Short: true})
	if err != nil {
		t.Fatal(err)
	}
	// Last row is SymBee; its speedup column must exceed 100×.
	last := tb.Rows[len(tb.Rows)-1]
	if last[0] != "SymBee" {
		t.Fatalf("last row = %v", last)
	}
	speedup, err := strconv.ParseFloat(last[3], 64)
	if err != nil {
		t.Fatal(err)
	}
	if speedup < 100 {
		t.Errorf("SymBee speedup = %v, want > 100x", speedup)
	}
}

// TestResultsFullReproduced pins the committed record to the code: each
// table below, at the `symbeebench -all -seed 1` configuration, must
// appear verbatim in results_full.txt. The set is every table of the
// shared packet loop that is cheap at full size: fig12 (Run and
// MeasurePrEpsilon), fig17 (Run's margins), fig23 (the mobility track
// the loop keeps across a batch) and the experiments that call the loop
// directly.
func TestResultsFullReproduced(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size figure runs are slow")
	}
	record, err := os.ReadFile(filepath.Join("..", "..", "results_full.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig11", "fig12", "fig17", "fig22a", "fig22b", "fig23",
		"ablation-preamble", "ablation-threshold", "ablation-soft"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := e.Run(Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if out := tb.Render(); !strings.Contains(string(record), out) {
			t.Errorf("%s at seed 1 is not in results_full.txt:\n%s", id, out)
		}
	}
}
