// Package hydrophone models the receive side of the paper's setup: an
// Aquarian H2a hydrophone (−180 dB re 1 V/µPa) feeding a PC audio input
// (§5.1b). It converts pressure waveforms to clipped, quantised voltage
// recordings the offline decoder consumes.
package hydrophone

import (
	"fmt"
	"math"

	"pab/internal/dsp"
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
	return h.RecordInto(nil, pressure)
}

// RecordInto is Record writing the voltages into dst's backing array
// when it is large enough.
func (h Hydrophone) RecordInto(dst, pressure []float64) ([]float64, error) {
	if err := h.Validate(); err != nil {
		return nil, err
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
	lsb := h.lsbV()
	out := dsp.Grow(dst, len(pressure))
	for i, p := range pressure {
		v := p * gain
		if v > h.MaxInputV {
			v = h.MaxInputV
		} else if v < -h.MaxInputV {
			v = -h.MaxInputV
		}
		out[i] = math.Round(v/lsb) * lsb
	}
	return out, nil
}

// NoiseFloorV returns the quantisation noise RMS of the recorder
// (lsb/√12), a fundamental floor on detectable backscatter modulation.
func (h Hydrophone) NoiseFloorV() float64 {
	return h.lsbV() / math.Sqrt(12)
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
