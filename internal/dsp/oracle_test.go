package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
)

// The tests in this file compare the FFT kernel, the analytic signal
// and the IIR filters bit for bit (math.Float64bits) with verbatim
// copies of the code they replaced: the textbook radix-2 loop, which
// recomputed each stage's twiddle recurrence in every block, and the
// section-by-section cascade. Any reordering of a butterfly, of the
// twiddle arithmetic or of a filter step shows up here as a changed bit.

// refFFTRadix2 is the replaced kernel, verbatim.
func refFFTRadix2(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := 2 * math.Pi / float64(size) * sign
		wStep := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

// refAnalyticSignal is the replaced AnalyticSignal, verbatim but for
// the kernel it calls.
func refAnalyticSignal(x []float64) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	m := NextPow2(n)
	buf := make([]complex128, m)
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	refFFTRadix2(buf, false)
	// Keep DC and Nyquist, double positive frequencies, zero negatives.
	for k := 1; k < m/2; k++ {
		buf[k] *= 2
	}
	for k := m/2 + 1; k < m; k++ {
		buf[k] = 0
	}
	refFFTRadix2(buf, true)
	inv := complex(1/float64(m), 0)
	out := make([]complex128, n)
	for i := range out {
		out[i] = buf[i] * inv
	}
	return out
}

// oracleSignal returns n samples of Gaussian noise with runs of exact
// zeros of both signs, so signed-zero arithmetic is exercised too.
func oracleSignal(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		switch {
		case i%97 < 9:
			// +0
		case i%97 < 13:
			x[i] = math.Copysign(0, -1)
		default:
			x[i] = rng.NormFloat64()
		}
	}
	return x
}

func sameComplexBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// firstComplexMismatch returns the first index where got and want differ
// in any bit, or −1.
func firstComplexMismatch(got, want []complex128) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if !sameComplexBits(got[i], want[i]) {
			return i
		}
	}
	return -1
}

// TestFFTKernelMatchesReference runs every power-of-two size from 2 to
// 2^18, an even and an odd number of stages on each side of the
// in-block/wide-stage split, forward and inverse, on complex noise,
// on real input padded with zeros and on an all-zero input.
func TestFFTKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for logN := 1; logN <= 18; logN++ {
		n := 1 << logN
		re, im := oracleSignal(rng, n), oracleSignal(rng, n)
		inputs := map[string][]complex128{
			"complex":    make([]complex128, n),
			"real+zeros": make([]complex128, n),
			"zero":       make([]complex128, n),
		}
		for i := range re {
			inputs["complex"][i] = complex(re[i], im[i])
			if i < n*3/4 {
				inputs["real+zeros"][i] = complex(re[i], 0)
			}
		}
		for name, in := range inputs {
			for _, inverse := range []bool{false, true} {
				got := append([]complex128(nil), in...)
				want := append([]complex128(nil), in...)
				fftRadix2(got, inverse)
				refFFTRadix2(want, inverse)
				if i := firstComplexMismatch(got, want); i >= 0 {
					t.Fatalf("n=2^%d %s inverse=%v: bin %d is %v, reference %v", logN, name, inverse, i, got[i], want[i])
				}
			}
		}
	}
}

// TestAnalyticSignalMatchesReference covers the recording lengths a
// sample-level exchange produces (73k–110k samples, padded to 2^17).
func TestAnalyticSignalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{1, 3, 1000, 73_000, 86_017, 98_304, 110_000, 131_072} {
		x := oracleSignal(rng, n)
		got := AnalyticSignal(x)
		want := refAnalyticSignal(x)
		if i := firstComplexMismatch(got, want); i >= 0 {
			t.Fatalf("n=%d: sample %d is %v, reference %v", n, i, got[i], want[i])
		}
	}
}

// refFilter and refFiltFilt are the replaced IIR.Filter and
// IIR.FiltFilt, verbatim.
func refFilter(f *IIR, x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	state := make([][2]float64, len(f.sections))
	for s := range f.sections {
		q := &f.sections[s]
		z := &state[s]
		for i, v := range out {
			out[i] = q.process(v, z)
		}
	}
	return out
}

func refFiltFilt(f *IIR, x []float64) []float64 {
	fwd := refFilter(f, x)
	// Reverse, filter, reverse.
	for i, j := 0, len(fwd)-1; i < j; i, j = i+1, j-1 {
		fwd[i], fwd[j] = fwd[j], fwd[i]
	}
	bwd := refFilter(f, fwd)
	for i, j := 0, len(bwd)-1; i < j; i, j = i+1, j-1 {
		bwd[i], bwd[j] = bwd[j], bwd[i]
	}
	return bwd
}

// TestIIRMatchesReference runs Filter, FiltFilt and AmplitudeEnvelope's
// in-place pass at orders 1–18, past the cascades whose filter state
// sits on the stack, on noise with exact zeros of both signs.
func TestIIRMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := oracleSignal(rng, 20_000)
	for _, order := range []int{1, 2, 3, 4, 5, 8, 16, 17, 18} {
		lp, err := DesignButterworthLowpass(400, 96000, order)
		if err != nil {
			t.Fatal(err)
		}
		if i := firstBitMismatch(lp.Filter(x), refFilter(lp, x)); i >= 0 {
			t.Fatalf("order %d: Filter differs at sample %d", order, i)
		}
		want := refFiltFilt(lp, x)
		if i := firstBitMismatch(lp.FiltFilt(x), want); i >= 0 {
			t.Fatalf("order %d: FiltFilt differs at sample %d", order, i)
		}
		inPlace := append([]float64(nil), x...)
		lp.filtFiltInPlace(inPlace)
		if i := firstBitMismatch(inPlace, want); i >= 0 {
			t.Fatalf("order %d: in-place FiltFilt differs at sample %d", order, i)
		}
	}
}

// firstBitMismatch returns the first index where got and want differ in
// any bit, or −1.
func firstBitMismatch(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}
