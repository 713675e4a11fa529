package dsp

import (
	"fmt"
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
	o.advance()
	return v
}

// NextSincos returns sin(phase) and cos(phase) and advances one sample
// as Next does; the sine is Next's bit for bit (math.Sincos returns the
// bits math.Sin and math.Cos do). A carrier amp·sin θ keyed by a slow
// level has the analytic signal level·amp·(sin θ − j·cos θ), so the
// pair yields both of its rails.
func (o *Oscillator) NextSincos() (sin, cos float64) {
	sin, cos = math.Sincos(o.phase)
	o.advance()
	return sin, cos
}

// advance steps the phase one sample, wrapping it past 2π.
func (o *Oscillator) advance() {
	o.phase += 2 * math.Pi * o.freq / o.fs
	if o.phase > 2*math.Pi {
		o.phase -= 2 * math.Pi
	}
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

// AnalyticSine returns the analytic signal of Sine(amplitude, f, fs,
// phase, n) as its two rails: re is Sine's output bit for bit and im,
// its Hilbert transform, is −amplitude·cos(2πft + phase).
func AnalyticSine(amplitude, f, fs, phase float64, n int) (re, im []float64) {
	re, im = make([]float64, n), make([]float64, n)
	w := 2 * math.Pi * f / fs
	for i := range re {
		sin, cos := math.Sincos(w*float64(i) + phase)
		re[i] = amplitude * sin
		im[i] = -amplitude * cos
	}
	return re, im
}

// Downconvert mixes the real passband signal x (sample rate fs) down by
// carrier frequency fc, returning the complex baseband signal. The result
// still contains the 2·fc image; low-pass filter it (see DownconvertLP) to
// complete the demodulation.
func Downconvert(x []float64, fc, fs float64) []complex128 {
	out := make([]complex128, len(x))
	w := 2 * math.Pi * fc / fs
	for i, v := range x {
		out[i] = mixSample(v, w, i)
	}
	return out
}

// mixSample returns e^{-jωi}·v: sample i of a recording, of value v,
// mixed down by the carrier at ω radians per sample. math.Sincos shares
// one argument reduction between the two and returns the bits math.Cos
// and math.Sin do.
func mixSample(v, w float64, i int) complex128 {
	sin, cos := math.Sincos(w * float64(i))
	return complex(v*cos, -v*sin)
}

// DownconvertLP mixes x down by fc and low-pass filters I and Q with an
// order-`order` Butterworth at the given cutoff, returning the complex
// baseband envelope. This is the paper's demodulation step ("demodulate by
// removing the carrier frequency", §3.2): the magnitude of the result is
// the amplitude trace plotted in Fig 2. The filter runs forward and then
// backward (zero phase), as IIR.FiltFilt does.
func DownconvertLP(x []float64, fc, fs, cutoff float64, order int) ([]complex128, error) {
	return DownconvertLPFrom(x, fc, fs, cutoff, order, 0)
}

// DownconvertLPFrom returns DownconvertLP(x, fc, fs, cutoff, order)[from:],
// bit for bit, for a caller that reads nothing before from — a receiver
// gated past its own downlink. It designs the filter and runs
// DownconvertGatedInto into a fresh buffer.
func DownconvertLPFrom(x []float64, fc, fs, cutoff float64, order, from int) ([]complex128, error) {
	lp, err := DesignButterworthLowpass(cutoff, fs, order)
	if err != nil {
		return nil, err
	}
	return DownconvertGatedInto(nil, x, fc, fs, lp, from)
}

// iqStackSections is the longest cascade whose I/Q filter state
// DownconvertGatedFrom keeps on the stack (order 16); longer ones
// allocate it.
const iqStackSections = 8

// DownconvertGatedInto mixes x down by fc and runs the low-pass lp
// forward and then backward over I and Q, returning the baseband from
// sample from on, written into dst's backing array when it is large
// enough. It is DownconvertGatedFrom reading x as one block.
func DownconvertGatedInto(dst []complex128, x []float64, fc, fs float64, lp *IIR, from int) ([]complex128, error) {
	return DownconvertGatedFrom(dst, len(x), len(x), func(off, k int) []float64 { return x[off : off+k] }, fc, fs, lp, from)
}

// DownconvertGatedFrom is DownconvertGatedInto over an n-sample signal
// that next supplies in blocks of at most block samples: next(off, k)
// returns samples [off, off+k), and may reuse one buffer from call to
// call, since each block is consumed before the next is asked for. The
// mix and the forward filter pass cover all n samples, because the
// filter state at from depends on every earlier sample; the backward
// pass stops at from, because its output at index i reads only forward
// outputs at indices ≥ i. Only the samples from the gate on are stored.
func DownconvertGatedFrom(dst []complex128, n, block int, next func(off, k int) []float64, fc, fs float64, lp *IIR, from int) ([]complex128, error) {
	if from < 0 || from > n {
		return nil, fmt.Errorf("dsp: demodulation start %d outside [0, %d]", from, n)
	}
	block = max(block, 1)
	w := 2 * math.Pi * fc / fs
	bb := Grow(dst, n-from)
	// Both rails pass through the whole cascade one sample at a time,
	// which yields the values FiltFilt's section-by-section passes do:
	// each section's output at i depends only on its inputs up to i in
	// filtering order. The blocks before the gate are mixed on the fly
	// and dropped once they have moved the forward state, so their
	// mixing is timed in the filter stage, not the downconvert stage.
	var state [2][iqStackSections][2]float64
	zr, zi := state[0][:], state[1][:]
	if ns := len(lp.sections); ns > iqStackSections {
		zr, zi = make([][2]float64, ns), make([][2]float64, ns)
	} else {
		zr, zi = zr[:ns], zi[:ns]
	}
	for off := 0; off < from; off += block {
		x := next(off, min(block, from-off))
		st := prof.Start(prof.StageFilter)
		for i, v := range x {
			lp.cascadeIQ(mixSample(v, w, off+i), zr, zi)
		}
		st.Stop(len(x))
	}
	for off := from; off < n; off += block {
		x := next(off, min(block, n-off))
		st := prof.Start(prof.StageDownconvert)
		out := bb[off-from:][:len(x)]
		for i, v := range x {
			out[i] = mixSample(v, w, off+i)
		}
		st.Stop(len(x))
	}
	st := prof.Start(prof.StageFilter)
	for i, v := range bb {
		bb[i] = lp.cascadeIQ(v, zr, zi)
	}
	clear(zr)
	clear(zi)
	for i := len(bb) - 1; i >= 0; i-- {
		bb[i] = lp.cascadeIQ(bb[i], zr, zi)
	}
	st.Stop(len(bb))
	return bb, nil
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
	env := make([]float64, len(x))
	for i, v := range x {
		env[i] = math.Abs(v)
	}
	lp.filtFiltInPlace(env)
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
