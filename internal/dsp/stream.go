package dsp

import "math"

const twoPi = 2 * math.Pi

// Downmixer is the streaming counterpart of Downconvert: it mixes real
// passband blocks down by a fixed carrier, carrying the oscillator
// phase across calls so consecutive blocks are phase-continuous. A
// recording processed block by block therefore matches the one-shot
// Downconvert up to floating-point rounding in the phase accumulator
// (the constant overall phase is absorbed downstream by the
// modulation-axis estimate).
type Downmixer struct {
	w     float64 // radians advanced per sample
	phase float64 // current phase, wrapped to [0, 2π)
}

// NewDownmixer returns a mixer for carrier fc (Hz) at sample rate fs.
func NewDownmixer(fc, fs float64) *Downmixer {
	return &Downmixer{w: twoPi * fc / fs}
}

// MixInto writes e^{-jφ[n]}·x[n] into dst, which must hold at least
// len(x) elements, and returns dst[:len(x)]. The carried phase
// advances by len(x) samples.
func (m *Downmixer) MixInto(dst []complex128, x []float64) []complex128 {
	out := dst[:len(x)]
	phase, w := m.phase, m.w
	for i, v := range x {
		s, c := math.Sincos(phase)
		out[i] = complex(v*c, -v*s)
		phase += w
		if phase >= twoPi {
			phase -= twoPi
		}
	}
	m.phase = phase
	return out
}

// IIRStream applies a biquad cascade causally one block at a time,
// carrying the per-section direct-form-II-transposed state across
// calls: a signal fed through in blocks of any size produces
// bit-identical output to (*IIR).Filter over the whole signal, because
// each section's recurrence consumes samples in the same order either
// way. This is the stateful filter object the block-based receiver
// needs — FiltFilt's backward pass reads the future and cannot stream.
type IIRStream struct {
	sections []Biquad
	state    [][2]float64
}

// Stream returns a stateful streaming view of the cascade. The
// sections are copied; the IIR itself is not retained.
func (f *IIR) Stream() *IIRStream {
	return &IIRStream{
		sections: f.Sections(),
		state:    make([][2]float64, len(f.sections)),
	}
}

// Process filters block into dst (which must hold at least len(block)
// elements and may alias block for in-place filtering) and returns
// dst[:len(block)], advancing the carried filter state.
func (s *IIRStream) Process(dst, block []float64) []float64 {
	out := dst[:len(block)]
	if len(block) == 0 {
		return out
	}
	if &out[0] != &block[0] {
		copy(out, block)
	}
	for si := range s.sections {
		q := &s.sections[si]
		z := &s.state[si]
		for i, v := range out {
			out[i] = q.process(v, z)
		}
	}
	return out
}
