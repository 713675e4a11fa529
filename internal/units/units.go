// Package units provides the physical quantities and conversions used
// throughout the PAB simulator: decibel scales, underwater sound pressure
// references, and small helpers for converting between linear and
// logarithmic representations.
//
// Underwater acoustics uses a 1 µPa pressure reference (air acoustics uses
// 20 µPa), so sound levels in this codebase are always "dB re 1 µPa" unless
// stated otherwise. Hydrophone sensitivities are "dB re 1 V/µPa".
package units

import "math"

// MicroPascal is the underwater reference pressure, in pascal.
const MicroPascal = 1e-6

// DB is a ratio expressed in decibels. Whether it is a power ratio
// (10·log10) or an amplitude ratio (20·log10) is determined by the
// conversion function used, not by the type.
type DB float64

// PowerToDB converts a linear power ratio to decibels.
// Non-positive ratios map to -Inf.
func PowerToDB(ratio float64) DB {
	if ratio <= 0 {
		return DB(math.Inf(-1))
	}
	return DB(10 * math.Log10(ratio))
}

// DBToPower converts decibels to a linear power ratio.
func DBToPower(db DB) float64 {
	return math.Pow(10, float64(db)/10)
}

// AmplitudeToDB converts a linear amplitude ratio to decibels.
// Non-positive ratios map to -Inf.
func AmplitudeToDB(ratio float64) DB {
	if ratio <= 0 {
		return DB(math.Inf(-1))
	}
	return DB(20 * math.Log10(ratio))
}

// DBToAmplitude converts decibels to a linear amplitude ratio.
func DBToAmplitude(db DB) float64 {
	return math.Pow(10, float64(db)/20)
}

// SPL returns the sound pressure level, in dB re 1 µPa, of an RMS pressure
// given in pascal.
func SPL(rmsPressurePa float64) DB {
	return AmplitudeToDB(rmsPressurePa / MicroPascal)
}

// PressureFromSPL returns the RMS pressure in pascal corresponding to a
// sound pressure level in dB re 1 µPa.
func PressureFromSPL(spl DB) float64 {
	return DBToAmplitude(spl) * MicroPascal
}

// HydrophoneVoltage returns the output voltage of a hydrophone with the
// given receive sensitivity (dB re 1 V/µPa) for an RMS pressure in pascal.
func HydrophoneVoltage(rmsPressurePa float64, sensitivity DB) float64 {
	// V = P[µPa] · 10^(S/20) with S in dB re 1 V/µPa.
	return rmsPressurePa / MicroPascal * DBToAmplitude(sensitivity)
}

// ApproxEqual reports whether a and b agree to within tol of the larger
// magnitude (relative) or within tol absolutely when both are small.
func ApproxEqual(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}
