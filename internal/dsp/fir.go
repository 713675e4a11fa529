package dsp

import (
	"fmt"
	"math"
)

// FIR is a finite-impulse-response filter defined by its tap coefficients.
// The zero value is unusable; construct with one of the design functions or
// NewFIR.
type FIR struct {
	taps []float64
}

// NewFIR creates a filter from explicit tap coefficients. The taps are
// copied.
func NewFIR(taps []float64) (*FIR, error) {
	if err := validateLength(len(taps), "FIR taps"); err != nil {
		return nil, err
	}
	t := make([]float64, len(taps))
	copy(t, taps)
	return &FIR{taps: t}, nil
}

// Taps returns a copy of the filter's coefficients.
func (f *FIR) Taps() []float64 {
	t := make([]float64, len(f.taps))
	copy(t, f.taps)
	return t
}

// Len returns the number of taps.
func (f *FIR) Len() int { return len(f.taps) }

// Filter convolves x with the filter taps and returns the "same"-length
// output aligned so that output[i] corresponds to input[i] delayed by the
// group delay.
func (f *FIR) Filter(x []float64) []float64 {
	full := Convolve(x, f.taps)
	delay := (len(f.taps) - 1) / 2
	out := make([]float64, len(x))
	copy(out, full[delay:delay+len(x)])
	return out
}

// Convolve returns the full linear convolution of a and b
// (length len(a)+len(b)-1). Inputs above a size threshold are convolved via
// FFT for speed; small inputs use the direct method.
func Convolve(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	n := len(a) + len(b) - 1
	// Direct method cost ~ len(a)*len(b); FFT cost ~ 3·m·log2(m).
	if len(a)*len(b) <= 16*1024 {
		out := make([]float64, n)
		for i, av := range a {
			for j, bv := range b {
				out[i+j] += av * bv
			}
		}
		return out
	}
	m := NextPow2(n)
	fa := make([]complex128, m)
	fb := make([]complex128, m)
	for i, v := range a {
		fa[i] = complex(v, 0)
	}
	for i, v := range b {
		fb[i] = complex(v, 0)
	}
	fftRadix2(fa, false)
	fftRadix2(fb, false)
	for i := range fa {
		fa[i] *= fb[i]
	}
	fftRadix2(fa, true)
	out := make([]float64, n)
	inv := 1 / float64(m)
	for i := 0; i < n; i++ {
		out[i] = real(fa[i]) * inv
	}
	return out
}

// DesignLowpassFIR designs a windowed-sinc lowpass filter with the given
// cutoff (Hz), sample rate (Hz) and tap count. The tap count is forced odd
// so the filter has integer group delay. The passband gain is normalised
// to exactly 1 at DC.
func DesignLowpassFIR(cutoff, fs float64, taps int, w Window) (*FIR, error) {
	if cutoff <= 0 || cutoff >= fs/2 {
		return nil, fmt.Errorf("dsp: lowpass cutoff %g Hz outside (0, fs/2=%g)", cutoff, fs/2)
	}
	if taps < 3 {
		return nil, fmt.Errorf("dsp: need at least 3 taps, got %d", taps)
	}
	if taps%2 == 0 {
		taps++
	}
	fc := cutoff / fs // normalised cutoff, cycles/sample
	mid := (taps - 1) / 2
	h := make([]float64, taps)
	for i := range h {
		m := float64(i - mid)
		if m == 0 {
			h[i] = 2 * fc
		} else {
			h[i] = math.Sin(2*math.Pi*fc*m) / (math.Pi * m)
		}
	}
	win := w.Coefficients(taps)
	sum := 0.0
	for i := range h {
		h[i] *= win[i]
		sum += h[i]
	}
	for i := range h {
		h[i] /= sum
	}
	return &FIR{taps: h}, nil
}

// DesignBandpassFIR designs a windowed-sinc bandpass filter passing
// [low, high] Hz. The gain is normalised to 1 at the band centre.
func DesignBandpassFIR(low, high, fs float64, taps int, w Window) (*FIR, error) {
	if !(0 < low && low < high && high < fs/2) {
		return nil, fmt.Errorf("dsp: bandpass edges (%g, %g) invalid for fs=%g", low, high, fs)
	}
	if taps < 3 {
		return nil, fmt.Errorf("dsp: need at least 3 taps, got %d", taps)
	}
	if taps%2 == 0 {
		taps++
	}
	f1 := low / fs
	f2 := high / fs
	mid := (taps - 1) / 2
	h := make([]float64, taps)
	for i := range h {
		m := float64(i - mid)
		if m == 0 {
			h[i] = 2 * (f2 - f1)
		} else {
			h[i] = (math.Sin(2*math.Pi*f2*m) - math.Sin(2*math.Pi*f1*m)) / (math.Pi * m)
		}
	}
	win := w.Coefficients(taps)
	for i := range h {
		h[i] *= win[i]
	}
	// Normalise gain at the geometric band centre.
	fc := (low + high) / 2
	re, im := 0.0, 0.0
	for i, tap := range h {
		phase := 2 * math.Pi * fc / fs * float64(i)
		re += tap * math.Cos(phase)
		im -= tap * math.Sin(phase)
	}
	gain := math.Hypot(re, im)
	if gain == 0 {
		return nil, fmt.Errorf("dsp: degenerate bandpass design")
	}
	for i := range h {
		h[i] /= gain
	}
	return &FIR{taps: h}, nil
}

// MovingAverage returns the centered moving average of x over a window of
// n samples (n forced odd). Edges use shorter one-sided windows.
func MovingAverage(x []float64, n int) []float64 {
	if n < 1 {
		n = 1
	}
	if n%2 == 0 {
		n++
	}
	half := n / 2
	out := make([]float64, len(x))
	// Prefix sums for O(len(x)) evaluation.
	prefix := make([]float64, len(x)+1)
	for i, v := range x {
		prefix[i+1] = prefix[i] + v
	}
	for i := range x {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half + 1
		if hi > len(x) {
			hi = len(x)
		}
		out[i] = (prefix[hi] - prefix[lo]) / float64(hi-lo)
	}
	return out
}
