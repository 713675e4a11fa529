// Package acoustics models the propagation medium the PAB simulator's
// tanks are filled with: speed of sound and frequency-dependent
// absorption.
package acoustics

// Water describes the propagation medium.
type Water struct {
	TemperatureC float64 // °C
	SalinityPSU  float64 // practical salinity units (35 for seawater, ~0.5 fresh)
	DepthM       float64 // m, depth of the propagation path
}

// FreshTank returns the conditions of an indoor freshwater test tank like
// the MIT Sea Grant pools used in the paper: room temperature, fresh
// water, ~1 m depth.
func FreshTank() Water {
	return Water{TemperatureC: 20, SalinityPSU: 0.5, DepthM: 1}
}

// SoundSpeed returns the speed of sound in m/s using the Mackenzie (1981)
// nine-term equation, valid for 0–30 °C, 30–40 PSU, 0–8000 m. For fresh
// water (salinity ≈ 0) it degrades gracefully to within a few m/s of the
// pure-water value, which is adequate for tank geometry.
func (w Water) SoundSpeed() float64 {
	t := w.TemperatureC
	s := w.SalinityPSU
	d := w.DepthM
	return 1448.96 + 4.591*t - 5.304e-2*t*t + 2.374e-4*t*t*t +
		1.340*(s-35) + 1.630e-2*d + 1.675e-7*d*d -
		1.025e-2*t*(s-35) - 7.139e-13*t*d*d*d
}

// AbsorptionDBPerKm returns the acoustic absorption coefficient in dB/km
// at frequency f (Hz) using Thorp's formula (valid below ~50 kHz, the PAB
// operating band). Absorption grows roughly with f², which is why the
// paper chose a 17 kHz resonator over ultrasound (§4.1).
func (w Water) AbsorptionDBPerKm(f float64) float64 {
	if f <= 0 {
		return 0
	}
	fk := f / 1000 // kHz
	f2 := fk * fk
	// Thorp (1967), dB/km:
	alpha := 0.11*f2/(1+f2) + 44*f2/(4100+f2) + 2.75e-4*f2 + 0.003
	if w.SalinityPSU < 5 {
		// Fresh water lacks the boric-acid and magnesium-sulphate
		// relaxation losses; only the viscous term remains.
		alpha = 2.75e-4*f2 + 0.003
	}
	return alpha
}
