package core

import (
	"errors"
	"math"
	"testing"
)

func TestParams20(t *testing.T) {
	p := Params20()
	if p.Lag != 16 || p.StableLen != 84 || p.BitPeriod != 640 || p.Tau != 10 || p.TauSync != 42 {
		t.Errorf("Params20 = %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
	if got := p.BitDuration(); math.Abs(got-32e-6) > 1e-12 {
		t.Errorf("BitDuration = %v, want 32µs", got)
	}
	if got := p.RawBitRate(); math.Abs(got-31250) > 1e-6 {
		t.Errorf("RawBitRate = %v, want 31.25 kbps", got)
	}
}

func TestParams40(t *testing.T) {
	// §VI-B: everything doubles at 40 Msps; the bit rate does not change.
	p := Params40()
	if p.Lag != 32 || p.StableLen != 168 || p.BitPeriod != 1280 || p.Tau != 20 || p.TauSync != 84 {
		t.Errorf("Params40 = %+v", p)
	}
	if got := p.RawBitRate(); math.Abs(got-31250) > 1e-6 {
		t.Errorf("RawBitRate = %v, want 31.25 kbps", got)
	}
}

func TestNewParamsRejectsOddRates(t *testing.T) {
	for _, rate := range []float64{0, -20e6, 30e6, 19e6} {
		if _, err := NewParams(rate); err == nil {
			t.Errorf("rate %v: expected error", rate)
		}
	}
}

func TestWithTau(t *testing.T) {
	p := Params20().WithTau(25)
	if p.Tau != 25 {
		t.Errorf("Tau = %d", p.Tau)
	}
	if Params20().Tau != 10 {
		t.Error("WithTau mutated the base params")
	}
}

func TestValidateCatchesBadParams(t *testing.T) {
	for _, p := range []Params{Params20(), Params40()} {
		if err := p.Validate(); err != nil {
			t.Fatalf("default %v Hz: Validate = %v", p.SampleRate, err)
		}
	}
	good := Params20()
	tests := []struct {
		name   string
		mutate func(*Params)
		want   error // nil: any error
	}{
		// A NaN rate passes a `<= 0` test, and +Inf every range check.
		{"zero rate", func(p *Params) { p.SampleRate = 0 }, errSampleRate},
		{"NaN rate", func(p *Params) { p.SampleRate = math.NaN() }, errSampleRate},
		{"+Inf rate", func(p *Params) { p.SampleRate = math.Inf(1) }, errSampleRate},
		{"-Inf rate", func(p *Params) { p.SampleRate = math.Inf(-1) }, errSampleRate},
		{"zero lag", func(p *Params) { p.Lag = 0 }, nil},
		{"negative tau", func(p *Params) { p.Tau = -1 }, nil},
		{"tau too large", func(p *Params) { p.Tau = p.StableLen }, nil},
		{"tauSync zero", func(p *Params) { p.TauSync = 0 }, nil},
		{"tauSync too large", func(p *Params) { p.TauSync = p.StableLen + 1 }, nil},
		{"stable >= period", func(p *Params) { p.StableLen = p.BitPeriod }, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := good
			tt.mutate(&p)
			if err := p.Validate(); err == nil || tt.want != nil && !errors.Is(err, tt.want) {
				t.Errorf("Validate = %v, want %v", err, tt.want)
			}
		})
	}
}
