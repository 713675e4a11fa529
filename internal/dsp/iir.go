package dsp

import (
	"fmt"
	"math"
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
