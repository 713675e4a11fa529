// Package acoustics models underwater sound propagation. The simulator's
// tanks use the speed of sound and frequency-dependent absorption. The
// rest is groundwork for ocean-scale channels that no binary runs yet:
// geometric spreading, the sonar-equation link budget, the Wenz
// ambient-noise spectrum, and sound-speed profiles with a ray tracer
// (profile.go).
//
// Levels follow underwater convention: dB re 1 µPa at 1 m for source
// levels, dB re 1 µPa for received levels and noise spectral densities
// (per Hz).
package acoustics

import (
	"fmt"
	"math"

	"pab/internal/units"
)

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

// SpreadingModel selects the geometric spreading law.
type SpreadingModel int

// Spreading laws. Spherical (20·log r) applies in open water and compact
// tanks; Cylindrical (10·log r) applies in shallow waveguides; Practical
// (15·log r) is the common intermediate for elongated enclosures such as
// the paper's Pool B corridor.
const (
	Spherical SpreadingModel = iota
	Cylindrical
	Practical
)

// String returns the spreading model's name.
func (m SpreadingModel) String() string {
	switch m {
	case Spherical:
		return "spherical"
	case Cylindrical:
		return "cylindrical"
	case Practical:
		return "practical"
	default:
		return "unknown"
	}
}

// exponent returns k in the k·log10(r) spreading loss term.
func (m SpreadingModel) exponent() float64 {
	switch m {
	case Cylindrical:
		return 10
	case Practical:
		return 15
	default:
		return 20
	}
}

// TransmissionLoss returns the one-way transmission loss in dB at range
// rangeM (m) and frequency freqHz: TL = k·log10(r) + α·r. Ranges below
// 1 m return 0 (the source-level reference distance).
func (w Water) TransmissionLoss(rangeM, freqHz float64, m SpreadingModel) units.DB {
	if rangeM <= 1 {
		return 0
	}
	spread := m.exponent() * math.Log10(rangeM)
	absorb := w.AbsorptionDBPerKm(freqHz) * rangeM / 1000
	return units.DB(spread + absorb)
}

// PressureAttenuation returns the linear pressure (amplitude) attenuation
// factor corresponding to the transmission loss at range rangeM and
// frequency freqHz.
func (w Water) PressureAttenuation(rangeM, freqHz float64, m SpreadingModel) float64 {
	return units.DBToAmplitude(-w.TransmissionLoss(rangeM, freqHz, m))
}

// SourceLevel converts a projector's radiated acoustic power (W) and
// directivity index (dB) into a source level in dB re 1 µPa @ 1 m using
// SL = 170.8 + 10·log10(P) + DI.
func SourceLevel(acousticPowerW float64, directivityIndex units.DB) units.DB {
	if acousticPowerW <= 0 {
		return units.DB(math.Inf(-1))
	}
	return units.DB(170.8+10*math.Log10(acousticPowerW)) + directivityIndex
}

// ReceivedLevel solves the passive sonar equation RL = SL − TL for a
// one-way path.
func (w Water) ReceivedLevel(sl units.DB, rangeM, freqHz float64, m SpreadingModel) units.DB {
	return sl - w.TransmissionLoss(rangeM, freqHz, m)
}

// NoiseConditions parameterises the Wenz ambient-noise model.
type NoiseConditions struct {
	ShippingActivity float64 // 0 (none) to 1 (heavy)
	WindSpeedMS      float64 // m/s at the surface
}

// QuietTank returns the noise conditions of an indoor tank: no shipping,
// no wind, just thermal noise plus a facility floor.
func QuietTank() NoiseConditions {
	return NoiseConditions{}
}

// CoastalNoise returns moderate shipping and a light breeze.
func CoastalNoise() NoiseConditions {
	return NoiseConditions{ShippingActivity: 0.5, WindSpeedMS: 5}
}

// SpectralDensity returns the ambient noise power spectral density at
// frequency f in dB re 1 µPa²/Hz, using the standard four-component Wenz
// approximation (turbulence, shipping, surface agitation, thermal).
func (nc NoiseConditions) SpectralDensity(f float64) units.DB {
	if f <= 0 {
		return units.DB(math.Inf(-1))
	}
	fk := f / 1000 // kHz
	logf := math.Log10(fk)
	// Component levels (Coates 1990 formulation), in dB re 1 µPa²/Hz.
	turb := 17 - 30*math.Log10(math.Max(fk, 1e-3))
	ship := 40 + 20*(nc.ShippingActivity-0.5) + 26*logf - 60*math.Log10(fk+0.03)
	wind := 50 + 7.5*math.Sqrt(math.Max(nc.WindSpeedMS, 0)) + 20*logf - 40*math.Log10(fk+0.4)
	thermal := -15 + 20*logf
	total := units.DBToPower(units.DB(turb)) +
		units.DBToPower(units.DB(ship)) +
		units.DBToPower(units.DB(wind)) +
		units.DBToPower(units.DB(thermal))
	return units.PowerToDB(total)
}

// BandNoiseLevel integrates the noise spectral density over [f1Hz, f2Hz]
// and returns the in-band noise level in dB re 1 µPa. The integration uses
// the trapezoid rule over a log-spaced grid.
func (nc NoiseConditions) BandNoiseLevel(f1Hz, f2Hz float64) (units.DB, error) {
	if !(0 < f1Hz && f1Hz < f2Hz) {
		return 0, fmt.Errorf("acoustics: invalid band [%g, %g]", f1Hz, f2Hz)
	}
	const steps = 64
	logF1 := math.Log(f1Hz)
	logStep := (math.Log(f2Hz) - logF1) / steps
	total := 0.0
	prevF := f1Hz
	prevP := units.DBToPower(nc.SpectralDensity(f1Hz))
	for i := 1; i <= steps; i++ {
		f := math.Exp(logF1 + logStep*float64(i))
		p := units.DBToPower(nc.SpectralDensity(f))
		total += (prevP + p) / 2 * (f - prevF)
		prevF, prevP = f, p
	}
	return units.PowerToDB(total), nil
}

// Wavelength returns the acoustic wavelength in metres at frequency f.
func (w Water) Wavelength(f float64) float64 {
	if f <= 0 {
		return math.Inf(1)
	}
	return w.SoundSpeed() / f
}
