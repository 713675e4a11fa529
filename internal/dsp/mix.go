package dsp

import (
	"math"

	"pab/internal/prof"
)

// Oscillator generates coherent sinusoids sample by sample. It tracks phase
// continuously so consecutive blocks are phase-continuous.
type Oscillator struct {
	freq  float64 // Hz
	fs    float64 // Hz
	phase float64 // radians
}

// NewOscillator returns an oscillator at frequency f (Hz) for sample rate
// fs (Hz) with initial phase 0.
func NewOscillator(f, fs float64) *Oscillator {
	return &Oscillator{freq: f, fs: fs}
}

// Next returns sin(phase) and advances one sample.
func (o *Oscillator) Next() float64 {
	v := math.Sin(o.phase)
	o.phase += 2 * math.Pi * o.freq / o.fs
	if o.phase > 2*math.Pi {
		o.phase -= 2 * math.Pi
	}
	return v
}

// Sine synthesises amplitude·sin(2πft + phase) sampled at fs for n samples.
func Sine(amplitude, f, fs, phase float64, n int) []float64 {
	out := make([]float64, n)
	w := 2 * math.Pi * f / fs
	for i := range out {
		out[i] = amplitude * math.Sin(w*float64(i)+phase)
	}
	return out
}

// Downconvert mixes the real passband signal x (sample rate fs) down by
// carrier frequency fc, returning the complex baseband signal. The result
// still contains the 2·fc image; low-pass filter it (see DownconvertLP) to
// complete the demodulation.
func Downconvert(x []float64, fc, fs float64) []complex128 {
	out := make([]complex128, len(x))
	w := 2 * math.Pi * fc / fs
	for i, v := range x {
		ph := w * float64(i)
		// e^{-jωt}·x(t)
		out[i] = complex(v*math.Cos(ph), -v*math.Sin(ph))
	}
	return out
}

// DownconvertLP mixes x down by fc and low-pass filters I and Q with an
// order-`order` Butterworth at the given cutoff, returning the complex
// baseband envelope. This is the paper's demodulation step ("demodulate by
// removing the carrier frequency", §3.2): the magnitude of the result is
// the amplitude trace plotted in Fig 2.
func DownconvertLP(x []float64, fc, fs, cutoff float64, order int) ([]complex128, error) {
	lp, err := DesignButterworthLowpass(cutoff, fs, order)
	if err != nil {
		return nil, err
	}
	st := prof.Start(prof.StageDownconvert)
	mixed := Downconvert(x, fc, fs)
	st.Stop(len(x))
	st = prof.Start(prof.StageFilter)
	re := make([]float64, len(mixed))
	im := make([]float64, len(mixed))
	for i, c := range mixed {
		re[i] = real(c)
		im[i] = imag(c)
	}
	re = lp.FiltFilt(re)
	im = lp.FiltFilt(im)
	out := make([]complex128, len(mixed))
	for i := range out {
		out[i] = complex(re[i], im[i])
	}
	st.Stop(len(mixed))
	return out, nil
}

// Envelope returns |x| of a complex baseband signal.
func Envelope(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, c := range x {
		out[i] = math.Hypot(real(c), imag(c))
	}
	return out
}

// AmplitudeEnvelope recovers the envelope of a real passband signal by
// full-wave rectification followed by Butterworth low-pass filtering at
// the given cutoff, scaled by π/2 to undo the rectification loss. This is
// the low-power envelope detector a PAB node itself implements in analog
// hardware for downlink PWM decoding.
func AmplitudeEnvelope(x []float64, fs, cutoff float64, order int) ([]float64, error) {
	lp, err := DesignButterworthLowpass(cutoff, fs, order)
	if err != nil {
		return nil, err
	}
	rect := make([]float64, len(x))
	for i, v := range x {
		rect[i] = math.Abs(v)
	}
	env := lp.FiltFilt(rect)
	// Mean of |sin| is 2/π of the peak; rescale to peak amplitude.
	scale := math.Pi / 2
	for i := range env {
		env[i] *= scale
	}
	return env, nil
}

// Decimate returns every factor-th sample of x, starting at index 0.
// The caller is responsible for prior anti-alias filtering.
func Decimate(x []float64, factor int) []float64 {
	if factor <= 1 {
		out := make([]float64, len(x))
		copy(out, x)
		return out
	}
	out := make([]float64, 0, len(x)/factor+1)
	for i := 0; i < len(x); i += factor {
		out = append(out, x[i])
	}
	return out
}
