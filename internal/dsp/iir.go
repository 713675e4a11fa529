package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"
)

// Biquad is a single second-order IIR section in direct form II transposed,
// normalised so a0 == 1:
//
//	y[n] = b0·x[n] + b1·x[n-1] + b2·x[n-2] − a1·y[n-1] − a2·y[n-2]
type Biquad struct {
	B0, B1, B2 float64
	A1, A2     float64
}

// Process filters a single sample, updating the section state (z1, z2).
func (q *Biquad) process(x float64, z *[2]float64) float64 {
	y := q.B0*x + z[0]
	z[0] = q.B1*x - q.A1*y + z[1]
	z[1] = q.B2*x - q.A2*y
	return y
}

// IIR is a cascade of biquad sections (a Butterworth filter of arbitrary
// even or odd order; odd orders carry a degenerate first-order section).
type IIR struct {
	sections []Biquad
}

// Sections returns a copy of the biquad cascade.
func (f *IIR) Sections() []Biquad {
	s := make([]Biquad, len(f.sections))
	copy(s, f.sections)
	return s
}

// Filter runs x through the cascade (causal, single pass) and returns the
// output. x is not modified.
func (f *IIR) Filter(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	f.filterInPlace(out)
	return out
}

// filterInPlace runs x through the cascade in place and leaves the
// values Filter returns. Each sample passes through every section
// before the next one enters, which changes no value (a section's
// output at i reads only its inputs up to i) but lets the sections'
// recurrences overlap instead of running one after another.
func (f *IIR) filterInPlace(x []float64) {
	var stack [iqStackSections][2]float64
	z := stack[:]
	if ns := len(f.sections); ns > iqStackSections {
		z = make([][2]float64, ns)
	} else {
		z = z[:ns]
	}
	for i, v := range x {
		for s := range z {
			v = f.sections[s].process(v, &z[s])
		}
		x[i] = v
	}
}

// cascadeIQ passes one sample of each rail through every section,
// carrying the rails' section states in zr and zi.
func (f *IIR) cascadeIQ(v complex128, zr, zi [][2]float64) complex128 {
	re, im := real(v), imag(v)
	for s := range f.sections {
		q := &f.sections[s]
		re = q.process(re, &zr[s])
		im = q.process(im, &zi[s])
	}
	return complex(re, im)
}

// FiltFilt runs the filter forward and then backward over x, yielding
// zero-phase filtering with squared magnitude response. This mirrors the
// offline MATLAB decoding the paper's receiver used. x is not modified.
func (f *IIR) FiltFilt(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	f.filtFiltInPlace(out)
	return out
}

// filtFiltInPlace is FiltFilt over x in place: filter, reverse, filter,
// reverse.
func (f *IIR) filtFiltInPlace(x []float64) {
	f.filterInPlace(x)
	slices.Reverse(x)
	f.filterInPlace(x)
	slices.Reverse(x)
}

// Response returns the complex frequency response of the cascade at
// frequency f (Hz) for sample rate fs.
func (f *IIR) Response(freq, fs float64) complex128 {
	w := 2 * math.Pi * freq / fs
	z1 := complex(math.Cos(-w), math.Sin(-w)) // z^-1
	z2 := z1 * z1
	h := complex(1, 0)
	for _, q := range f.sections {
		num := complex(q.B0, 0) + complex(q.B1, 0)*z1 + complex(q.B2, 0)*z2
		den := complex(1, 0) + complex(q.A1, 0)*z1 + complex(q.A2, 0)*z2
		h *= num / den
	}
	return h
}

// butterworthQs returns the per-section Q factors for an order-n
// Butterworth cascade, plus whether a trailing first-order section is
// needed (odd orders).
func butterworthQs(n int) (qs []float64, firstOrder bool) {
	pairs := n / 2
	qs = make([]float64, 0, pairs)
	for k := 0; k < pairs; k++ {
		angle := math.Pi * float64(2*k+1) / float64(2*n)
		qs = append(qs, 1/(2*math.Sin(angle)))
	}
	return qs, n%2 == 1
}

// DesignButterworthLowpass designs an order-n Butterworth lowpass with the
// given -3 dB cutoff (Hz) at sample rate fs, as a biquad cascade via the
// bilinear transform.
func DesignButterworthLowpass(cutoff, fs float64, order int) (*IIR, error) {
	if cutoff <= 0 || cutoff >= fs/2 {
		return nil, fmt.Errorf("dsp: butterworth cutoff %g Hz outside (0, fs/2=%g)", cutoff, fs/2)
	}
	if order < 1 {
		return nil, fmt.Errorf("dsp: butterworth order must be ≥ 1, got %d", order)
	}
	w0 := 2 * math.Pi * cutoff / fs
	qs, addFirst := butterworthQs(order)
	sections := make([]Biquad, 0, len(qs)+1)
	for _, q := range qs {
		sections = append(sections, rbjLowpass(w0, q))
	}
	if addFirst {
		sections = append(sections, firstOrderLowpass(w0))
	}
	return &IIR{sections: sections}, nil
}

// DesignButterworthHighpass designs an order-n Butterworth highpass with
// the given -3 dB cutoff (Hz) at sample rate fs.
func DesignButterworthHighpass(cutoff, fs float64, order int) (*IIR, error) {
	if cutoff <= 0 || cutoff >= fs/2 {
		return nil, fmt.Errorf("dsp: butterworth cutoff %g Hz outside (0, fs/2=%g)", cutoff, fs/2)
	}
	if order < 1 {
		return nil, fmt.Errorf("dsp: butterworth order must be ≥ 1, got %d", order)
	}
	w0 := 2 * math.Pi * cutoff / fs
	qs, addFirst := butterworthQs(order)
	sections := make([]Biquad, 0, len(qs)+1)
	for _, q := range qs {
		sections = append(sections, rbjHighpass(w0, q))
	}
	if addFirst {
		sections = append(sections, firstOrderHighpass(w0))
	}
	return &IIR{sections: sections}, nil
}

// DesignButterworthBandpass designs an order-n Butterworth bandpass
// passing [low, high] Hz via the analog lowpass→bandpass transformation
// and the bilinear transform, yielding n second-order sections (2n poles).
// This is the receiver's per-channel isolation filter (paper §5.1b: "a
// Butterworth filter on each of the receive channels").
func DesignButterworthBandpass(low, high, fs float64, order int) (*IIR, error) {
	if !(0 < low && low < high && high < fs/2) {
		return nil, fmt.Errorf("dsp: bandpass edges (%g, %g) invalid for fs=%g", low, high, fs)
	}
	if order < 1 {
		return nil, fmt.Errorf("dsp: butterworth order must be ≥ 1, got %d", order)
	}
	// Pre-warp the band edges so the digital filter hits them exactly.
	w1 := 2 * fs * math.Tan(math.Pi*low/fs)
	w2 := 2 * fs * math.Tan(math.Pi*high/fs)
	w0 := math.Sqrt(w1 * w2)
	bw := w2 - w1

	// Analog Butterworth prototype poles (unit cutoff, left half-plane).
	proto := make([]complex128, order)
	for k := 0; k < order; k++ {
		theta := math.Pi/2 + math.Pi*float64(2*k+1)/float64(2*order)
		proto[k] = cmplx.Exp(complex(0, theta))
	}

	// Lowpass→bandpass: each prototype pole p maps to the two roots of
	// s² − p·bw·s + w0² = 0.
	analogPoles := make([]complex128, 0, 2*order)
	for _, p := range proto {
		pb := p * complex(bw, 0)
		disc := cmplx.Sqrt(pb*pb - complex(4*w0*w0, 0))
		analogPoles = append(analogPoles, (pb+disc)/2, (pb-disc)/2)
	}

	// Bilinear transform to z-domain.
	zPoles := make([]complex128, len(analogPoles))
	for i, s := range analogPoles {
		zPoles[i] = (complex(2*fs, 0) + s) / (complex(2*fs, 0) - s)
	}

	// Pair poles into conjugate pairs to form real-coefficient biquads.
	pairs, err := conjugatePairs(zPoles)
	if err != nil {
		return nil, fmt.Errorf("dsp: bandpass pole pairing: %w", err)
	}

	// Each section: numerator (1 − z⁻²) (one zero at z=1, one at z=−1,
	// from the n analog zeros at s=0 and n at s=∞), gain-normalised at
	// the digital centre frequency.
	fCenter := math.Atan(w0/(2*fs)) * fs / math.Pi // digital Hz of analog w0
	sections := make([]Biquad, 0, len(pairs))
	sec := IIR{sections: make([]Biquad, 1)} // reused per-section probe
	for _, pr := range pairs {
		a1 := -2 * real(pr[0])
		a2 := real(pr[0] * pr[1])
		if math.Abs(imag(pr[0]+pr[1])) > 1e-6 {
			return nil, fmt.Errorf("dsp: bandpass produced complex coefficients")
		}
		q := Biquad{B0: 1, B1: 0, B2: -1, A1: a1, A2: a2}
		sec.sections[0] = q
		g := cmplx.Abs(sec.Response(fCenter, fs))
		if g == 0 {
			return nil, fmt.Errorf("dsp: degenerate bandpass section")
		}
		q.B0 /= g
		q.B2 /= g
		sections = append(sections, q)
	}
	return &IIR{sections: sections}, nil
}

// conjugatePairs groups a pole set (closed under conjugation, or real)
// into pairs whose products yield real-coefficient quadratics.
func conjugatePairs(poles []complex128) ([][2]complex128, error) {
	if len(poles)%2 != 0 {
		return nil, fmt.Errorf("odd pole count %d", len(poles))
	}
	const tol = 1e-8
	used := make([]bool, len(poles))
	pairs := make([][2]complex128, 0, len(poles)/2)
	// First pair complex poles with their conjugates.
	for i, p := range poles {
		if used[i] || math.Abs(imag(p)) <= tol {
			continue
		}
		found := false
		for j := i + 1; j < len(poles); j++ {
			if used[j] {
				continue
			}
			if cmplx.Abs(poles[j]-cmplx.Conj(p)) < 1e-6*(1+cmplx.Abs(p)) {
				used[i], used[j] = true, true
				pairs = append(pairs, [2]complex128{p, poles[j]})
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("no conjugate for pole %v", p)
		}
	}
	// Then pair remaining real poles among themselves.
	reals := make([]int, 0, len(poles))
	for i := range poles {
		if !used[i] {
			reals = append(reals, i)
		}
	}
	for k := 0; k+1 < len(reals); k += 2 {
		pairs = append(pairs, [2]complex128{poles[reals[k]], poles[reals[k+1]]})
	}
	if len(reals)%2 != 0 {
		return nil, fmt.Errorf("unpaired real pole")
	}
	return pairs, nil
}

// rbjLowpass returns the RBJ audio-cookbook lowpass biquad for digital
// angular frequency w0 and quality factor q.
func rbjLowpass(w0, q float64) Biquad {
	cosw := math.Cos(w0)
	alpha := math.Sin(w0) / (2 * q)
	a0 := 1 + alpha
	return Biquad{
		B0: (1 - cosw) / 2 / a0,
		B1: (1 - cosw) / a0,
		B2: (1 - cosw) / 2 / a0,
		A1: -2 * cosw / a0,
		A2: (1 - alpha) / a0,
	}
}

func rbjHighpass(w0, q float64) Biquad {
	cosw := math.Cos(w0)
	alpha := math.Sin(w0) / (2 * q)
	a0 := 1 + alpha
	return Biquad{
		B0: (1 + cosw) / 2 / a0,
		B1: -(1 + cosw) / a0,
		B2: (1 + cosw) / 2 / a0,
		A1: -2 * cosw / a0,
		A2: (1 - alpha) / a0,
	}
}

// firstOrderLowpass returns a first-order lowpass expressed as a
// degenerate biquad (B2 = A2 = 0), from the bilinear transform of
// H(s) = 1/(1+s/ωc).
func firstOrderLowpass(w0 float64) Biquad {
	k := math.Tan(w0 / 2)
	a0 := k + 1
	return Biquad{
		B0: k / a0,
		B1: k / a0,
		A1: (k - 1) / a0,
	}
}

func firstOrderHighpass(w0 float64) Biquad {
	k := math.Tan(w0 / 2)
	a0 := k + 1
	return Biquad{
		B0: 1 / a0,
		B1: -1 / a0,
		A1: (k - 1) / a0,
	}
}
