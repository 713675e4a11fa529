package acoustics

import (
	"math"
	"testing"
	"testing/quick"
)

// seawater is typical shallow coastal seawater.
var seawater = Water{TemperatureC: 15, SalinityPSU: 35, DepthM: 10}

func TestSoundSpeedKnownValues(t *testing.T) {
	// Mackenzie reference: T=25°C, S=35, D=0 → ~1534.6 m/s.
	w := Water{TemperatureC: 25, SalinityPSU: 35, DepthM: 0}
	if c := w.SoundSpeed(); math.Abs(c-1534.6) > 1.0 {
		t.Errorf("seawater 25°C: c = %g, want ~1534.6", c)
	}
	// Fresh water at 20°C ≈ 1482 m/s (tolerance loose: Mackenzie is a
	// seawater fit).
	tank := FreshTank()
	if c := tank.SoundSpeed(); math.Abs(c-1482) > 8 {
		t.Errorf("fresh 20°C: c = %g, want ~1482", c)
	}
}

func TestSoundSpeedMonotonicInTemperature(t *testing.T) {
	f := func(raw uint8) bool {
		t1 := float64(raw % 25)
		w1 := Water{TemperatureC: t1, SalinityPSU: 35}
		w2 := Water{TemperatureC: t1 + 2, SalinityPSU: 35}
		return w2.SoundSpeed() > w1.SoundSpeed()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAbsorptionIncreasesWithFrequency(t *testing.T) {
	w := seawater
	prev := 0.0
	for _, f := range []float64{1e3, 5e3, 10e3, 15e3, 20e3, 40e3} {
		a := w.AbsorptionDBPerKm(f)
		if a <= prev {
			t.Errorf("absorption not increasing at %g Hz: %g ≤ %g", f, a, prev)
		}
		prev = a
	}
}

func TestAbsorptionKnownOrder(t *testing.T) {
	// Thorp at 10 kHz ≈ 1 dB/km, at 15 kHz ≈ 2 dB/km (seawater).
	w := seawater
	if a := w.AbsorptionDBPerKm(10e3); a < 0.5 || a > 2 {
		t.Errorf("10 kHz absorption %g dB/km, want ~1", a)
	}
	if a := w.AbsorptionDBPerKm(15e3); a < 1 || a > 4 {
		t.Errorf("15 kHz absorption %g dB/km, want ~2", a)
	}
	// Fresh water is far more transparent.
	fresh := FreshTank()
	if af, as := fresh.AbsorptionDBPerKm(15e3), w.AbsorptionDBPerKm(15e3); af >= as/4 {
		t.Errorf("fresh water absorption %g should be well below seawater %g", af, as)
	}
	if w.AbsorptionDBPerKm(0) != 0 {
		t.Error("zero frequency should have zero absorption")
	}
}
