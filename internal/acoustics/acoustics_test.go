package acoustics

import (
	"math"
	"testing"
	"testing/quick"

	"pab/internal/units"
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

func TestTransmissionLoss(t *testing.T) {
	w := FreshTank()
	// Spherical: 20·log10(10) = 20 dB at 10 m (absorption negligible in
	// fresh water over 10 m).
	tl := w.TransmissionLoss(10, 15e3, Spherical)
	if math.Abs(float64(tl)-20) > 0.1 {
		t.Errorf("TL(10m, spherical) = %v, want ~20", tl)
	}
	// Practical spreading loses less.
	tlp := w.TransmissionLoss(10, 15e3, Practical)
	if math.Abs(float64(tlp)-15) > 0.1 {
		t.Errorf("TL(10m, practical) = %v, want ~15", tlp)
	}
	// Cylindrical even less.
	tlc := w.TransmissionLoss(10, 15e3, Cylindrical)
	if math.Abs(float64(tlc)-10) > 0.1 {
		t.Errorf("TL(10m, cylindrical) = %v, want ~10", tlc)
	}
	// Reference distance.
	if w.TransmissionLoss(1, 15e3, Spherical) != 0 {
		t.Error("TL at 1 m should be 0")
	}
	if w.TransmissionLoss(0.5, 15e3, Spherical) != 0 {
		t.Error("TL below 1 m should clamp to 0")
	}
}

func TestTransmissionLossMonotonicInRange(t *testing.T) {
	w := seawater
	f := func(seed uint16) bool {
		r := 1 + float64(seed%500)
		a := w.TransmissionLoss(r, 15e3, Spherical)
		b := w.TransmissionLoss(r+1, 15e3, Spherical)
		return b > a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPressureAttenuationConsistent(t *testing.T) {
	w := FreshTank()
	r, f := 7.0, 15e3
	att := w.PressureAttenuation(r, f, Spherical)
	tl := w.TransmissionLoss(r, f, Spherical)
	if got := units.AmplitudeToDB(att); math.Abs(float64(got)+float64(tl)) > 1e-9 {
		t.Errorf("attenuation %v dB vs TL %v dB", got, tl)
	}
	if att <= 0 || att >= 1 {
		t.Errorf("attenuation %g outside (0,1)", att)
	}
}

func TestSourceLevel(t *testing.T) {
	// 1 W omni → 170.8 dB re 1µPa@1m.
	if sl := SourceLevel(1, 0); math.Abs(float64(sl)-170.8) > 1e-9 {
		t.Errorf("SL(1W) = %v, want 170.8", sl)
	}
	// 100 W → +20 dB.
	if sl := SourceLevel(100, 0); math.Abs(float64(sl)-190.8) > 1e-9 {
		t.Errorf("SL(100W) = %v, want 190.8", sl)
	}
	if sl := SourceLevel(0, 0); !math.IsInf(float64(sl), -1) {
		t.Error("SL(0W) should be -Inf")
	}
}

func TestReceivedLevel(t *testing.T) {
	w := FreshTank()
	sl := units.DB(180)
	rl := w.ReceivedLevel(sl, 10, 15e3, Spherical)
	if math.Abs(float64(rl)-160) > 0.1 {
		t.Errorf("RL = %v, want ~160", rl)
	}
}

func TestNoiseSpectralDensityShape(t *testing.T) {
	nc := CoastalNoise()
	// In the 10–20 kHz band, ambient noise decreases with frequency
	// (wind-driven region rolls off at ~17 dB/decade).
	n10 := nc.SpectralDensity(10e3)
	n20 := nc.SpectralDensity(20e3)
	if n20 >= n10 {
		t.Errorf("noise should fall with frequency: N(10k)=%v, N(20k)=%v", n10, n20)
	}
	// Heavier shipping raises low-frequency noise.
	heavy := NoiseConditions{ShippingActivity: 1, WindSpeedMS: 5}
	if heavy.SpectralDensity(200) <= nc.SpectralDensity(200) {
		t.Error("heavier shipping should raise 200 Hz noise")
	}
	// Wind raises mid-frequency noise.
	calm := NoiseConditions{ShippingActivity: 0.5, WindSpeedMS: 0}
	if nc.SpectralDensity(10e3) <= calm.SpectralDensity(10e3) {
		t.Error("wind should raise 10 kHz noise")
	}
}

func TestBandNoiseLevel(t *testing.T) {
	nc := CoastalNoise()
	band, err := nc.BandNoiseLevel(14e3, 16e3)
	if err != nil {
		t.Fatal(err)
	}
	// Band level exceeds spectral density by roughly 10·log10(BW).
	sd := nc.SpectralDensity(15e3)
	approxBand := float64(sd) + 10*math.Log10(2000)
	if math.Abs(float64(band)-approxBand) > 2 {
		t.Errorf("band level %v, want ~%g", band, approxBand)
	}
	if _, err := nc.BandNoiseLevel(16e3, 14e3); err == nil {
		t.Error("inverted band should error")
	}
	if _, err := nc.BandNoiseLevel(0, 14e3); err == nil {
		t.Error("zero lower edge should error")
	}
}

func TestWiderBandMoreNoise(t *testing.T) {
	nc := CoastalNoise()
	narrow, _ := nc.BandNoiseLevel(14.5e3, 15.5e3)
	wide, _ := nc.BandNoiseLevel(13e3, 17e3)
	if wide <= narrow {
		t.Errorf("wider band %v should carry more noise than %v", wide, narrow)
	}
}

func TestWavelength(t *testing.T) {
	w := FreshTank()
	lambda := w.Wavelength(15e3)
	// c ≈ 1482 m/s → λ ≈ 0.099 m.
	if math.Abs(lambda-0.0988) > 0.005 {
		t.Errorf("λ(15kHz) = %g, want ~0.0988", lambda)
	}
	if !math.IsInf(w.Wavelength(0), 1) {
		t.Error("λ(0) should be +Inf")
	}
}

func TestSpreadingModelStrings(t *testing.T) {
	if Spherical.String() != "spherical" || Cylindrical.String() != "cylindrical" ||
		Practical.String() != "practical" {
		t.Error("spreading model names wrong")
	}
	if SpreadingModel(99).String() != "unknown" {
		t.Error("unknown model should stringify as unknown")
	}
}
