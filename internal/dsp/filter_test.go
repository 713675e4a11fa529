package dsp

import (
	"math"
	"math/cmplx"
	"testing"
)

// response is the cascade's complex frequency response at freq Hz for
// sample rate fs: the product of each biquad's transfer function at
// z = e^{jω}.
func response(f *IIR, freq, fs float64) complex128 {
	z1 := cmplx.Exp(complex(0, -2*math.Pi*freq/fs)) // z^-1
	z2 := z1 * z1
	h := complex(1, 0)
	for _, q := range f.sections {
		num := complex(q.B0, 0) + complex(q.B1, 0)*z1 + complex(q.B2, 0)*z2
		den := 1 + complex(q.A1, 0)*z1 + complex(q.A2, 0)*z2
		h *= num / den
	}
	return h
}

// toneMagnitude is |DFT of x at f Hz| for sample rate fs.
func toneMagnitude(x []float64, f, fs float64) float64 {
	var acc complex128
	for i, v := range x {
		acc += complex(v, 0) * cmplx.Exp(complex(0, -2*math.Pi*f*float64(i)/fs))
	}
	return cmplx.Abs(acc)
}

func TestButterworthLowpassMagnitude(t *testing.T) {
	fs := 96000.0
	for _, order := range []int{1, 2, 3, 4, 6} {
		lp, err := DesignButterworthLowpass(1000, fs, order)
		if err != nil {
			t.Fatal(err)
		}
		// -3 dB at cutoff.
		if g := cmplx.Abs(response(lp, 1000, fs)); math.Abs(g-1/math.Sqrt2) > 0.02 {
			t.Errorf("order %d: |H(fc)| = %g, want ~0.707", order, g)
		}
		// ~1 at DC-ish.
		if g := cmplx.Abs(response(lp, 10, fs)); math.Abs(g-1) > 0.01 {
			t.Errorf("order %d: |H(10Hz)| = %g, want ~1", order, g)
		}
		// Roll-off ≈ 6·order dB/octave: at 4·fc attenuation ≥ order·12 - 3 dB.
		g := cmplx.Abs(response(lp, 4000, fs))
		wantDB := float64(order)*12 - 4
		if -20*math.Log10(g) < wantDB {
			t.Errorf("order %d: attenuation at 4fc = %g dB, want ≥ %g", order, -20*math.Log10(g), wantDB)
		}
	}
}

func TestButterworthFilterTimeDomain(t *testing.T) {
	fs := 96000.0
	lp, err := DesignButterworthLowpass(2000, fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := 16384
	mix := Sine(1, 500, fs, 0, n)
	high := Sine(1, 20000, fs, 0, n)
	for i := range mix {
		mix[i] += high[i]
	}
	out := lp.Filter(mix)
	settled := out[n/2:]
	// The 20 kHz component must be crushed; the 500 Hz survives (the
	// causal filter phase-shifts it, so compare tone powers, not samples).
	p500 := toneMagnitude(settled, 500, fs) / float64(len(settled))
	p20k := toneMagnitude(settled, 20000, fs) / float64(len(settled))
	if p20k > 0.01*p500 {
		t.Errorf("20 kHz leakage: %g vs 500 Hz %g", p20k, p500)
	}
	if r := RMS(settled); math.Abs(r-1/math.Sqrt2) > 0.05 {
		t.Errorf("passband tone RMS %g, want ~0.707", r)
	}
}

func TestFiltFiltZeroPhase(t *testing.T) {
	fs := 96000.0
	lp, err := DesignButterworthLowpass(2000, fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := 16384
	in := Sine(1, 500, fs, 0, n)
	out := lp.FiltFilt(in)
	// Zero-phase: the filtered tone should align with the input (no lag).
	var dot, inE, outE float64
	for i := n / 4; i < 3*n/4; i++ {
		dot += in[i] * out[i]
		inE += in[i] * in[i]
		outE += out[i] * out[i]
	}
	corr := dot / math.Sqrt(inE*outE)
	if corr < 0.999 {
		t.Errorf("filtfilt correlation with input %g, want ~1 (zero phase)", corr)
	}
}

func TestIIRDesignErrors(t *testing.T) {
	if _, err := DesignButterworthLowpass(50000, 96000, 4); err == nil {
		t.Error("cutoff above Nyquist should error")
	}
	if _, err := DesignButterworthLowpass(100, 96000, 0); err == nil {
		t.Error("order 0 should error")
	}
}
