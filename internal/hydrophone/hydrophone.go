// Package hydrophone models the receive side of the paper's setup: an
// Aquarian H2a hydrophone (−180 dB re 1 V/µPa) feeding a PC audio input
// (§5.1b). It converts pressure waveforms to clipped, quantised voltage
// recordings the offline decoder consumes.
package hydrophone

import (
	"fmt"
	"math"

	"pab/internal/units"
)

// Hydrophone converts acoustic pressure to voltage.
type Hydrophone struct {
	// Sensitivity in dB re 1 V/µPa (H2a: −180).
	Sensitivity units.DB
	// MaxInputV is the recorder's clip level (line input ≈ ±1 V).
	MaxInputV float64
	// Bits is the recorder's ADC resolution (audio interfaces: 16–24).
	Bits int
	// AutoGain, when set, models the operator's input-level trim: if the
	// raw signal would clip, it is attenuated so its peak sits at 80% of
	// full scale before quantisation.
	AutoGain bool
}

// H2a returns the paper's hydrophone into a 16-bit audio line input.
func H2a() Hydrophone {
	return Hydrophone{Sensitivity: -180, MaxInputV: 1.0, Bits: 16}
}

// Validate checks the configuration.
func (h Hydrophone) Validate() error {
	if h.MaxInputV <= 0 {
		return fmt.Errorf("hydrophone: clip level must be positive, got %g", h.MaxInputV)
	}
	if h.Bits < 2 || h.Bits > 32 {
		return fmt.Errorf("hydrophone: ADC bits %d out of range", h.Bits)
	}
	return nil
}

// VoltsPerPascal returns the linear conversion gain.
func (h Hydrophone) VoltsPerPascal() float64 {
	return units.HydrophoneVoltage(1.0, h.Sensitivity)
}

// Record converts a pressure waveform (Pa) into the recorded voltage
// waveform, applying sensitivity, clipping and ADC quantisation.
func (h Hydrophone) Record(pressure []float64) ([]float64, error) {
	gain, err := h.Gain(pressure)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(pressure))
	h.Convert(out, pressure, gain)
	return out, nil
}

// Gain returns the conversion gain, in volts per pascal, that Record
// applies to pressure: the sensitivity, trimmed under AutoGain so the
// recording's peak sits at 80% of full scale. It is the only part of a
// recording that depends on every sample, so a block-by-block front end
// computes it once and then converts block by block with Convert.
func (h Hydrophone) Gain(pressure []float64) (float64, error) {
	if err := h.Validate(); err != nil {
		return 0, err
	}
	gain := h.VoltsPerPascal()
	if h.AutoGain {
		peak := 0.0
		for _, p := range pressure {
			if a := math.Abs(p) * gain; a > peak {
				peak = a
			}
		}
		if peak > 0.8*h.MaxInputV {
			gain *= 0.8 * h.MaxInputV / peak
		}
	}
	return gain, nil
}

// Convert writes the recorded voltage of each pressure sample into dst,
// which must be at least as long: the sample times gain (from Gain over
// the whole recording), clipped and quantised. Converting a recording
// in blocks gives Record's volts, bit for bit.
func (h Hydrophone) Convert(dst, pressure []float64, gain float64) {
	lsb := h.lsbV()
	dst = dst[:len(pressure)]
	for i, p := range pressure {
		v := p * gain
		if v > h.MaxInputV {
			v = h.MaxInputV
		} else if v < -h.MaxInputV {
			v = -h.MaxInputV
		}
		dst[i] = math.Round(v/lsb) * lsb
	}
}

// lsbV returns the ADC step size in volts. Validate enforces the same
// bounds; clamping here as well keeps the helper total on receivers that
// were never validated.
func (h Hydrophone) lsbV() float64 {
	bits := h.Bits
	if bits < 2 {
		bits = 2
	} else if bits > 32 {
		bits = 32
	}
	maxV := h.MaxInputV
	if maxV <= 0 {
		maxV = 1
	}
	return 2 * maxV / float64(uint64(1)<<uint(bits))
}
