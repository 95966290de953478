package channel

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// TestConfigsRejectNonFinite sets each float64 field of each config,
// on its Default* baseline, to NaN, +Inf and −Inf, and requires
// Validate to fail with errNonFinite. Every ordered comparison is false
// for NaN, so a range check alone passed a NaN as in range: a NaN
// FreqOffset or RicianK turned every sample of a capture NaN.
//
// No field accepts a non-finite value. The few infinities the
// arithmetic survives (BlockageLossDB +Inf blanks the signal, INRdB −Inf
// and BurstSNRdB +Inf add nothing) already have a finite spelling: a
// large loss, DutyCycle 0, BurstEvery 0.
func TestConfigsRejectNonFinite(t *testing.T) {
	cfg, faults := DefaultConfig(), DefaultFaultConfig()
	interference, mobility := DefaultInterferenceConfig(), DefaultMobilityConfig()
	for _, tc := range []struct {
		name     string
		cfg      any // pointer to the baseline, mutated in place
		validate func() error
	}{
		{"Config", &cfg, func() error { return cfg.Validate() }},
		{"FaultConfig", &faults, func() error { return faults.Validate() }},
		{"InterferenceConfig", &interference, func() error { return interference.Validate() }},
		{"MobilityConfig", &mobility, func() error { return mobility.Validate() }},
	} {
		if err := tc.validate(); err != nil {
			t.Fatalf("%s baseline: Validate = %v", tc.name, err)
		}
		v := reflect.ValueOf(tc.cfg).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if f.Kind() != reflect.Float64 {
				continue
			}
			orig := f.Float()
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				f.SetFloat(bad)
				if err := tc.validate(); !errors.Is(err, errNonFinite) {
					t.Errorf("%s.%s = %v: Validate = %v, want errNonFinite",
						tc.name, v.Type().Field(i).Name, bad, err)
				}
			}
			f.SetFloat(orig)
		}
	}
}
