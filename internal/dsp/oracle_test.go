package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
)

// The tests in this file compare the FFT kernel
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

// refPrefixSums and refCorrelateWith are the replaced recording-length
// correlator, verbatim: prefix sums over the whole input, one score per
// lag.
type refPrefixSums struct {
	sum, sumSq []float64
}

func refCorrelateWith(c *StepCorrelator, p *refPrefixSums, dst, x []float64) []float64 {
	m := c.Len()
	if len(x) < m {
		return nil
	}
	// Removing the input mean first keeps the prefix sums small, so
	// their differences lose no precision on long recordings.
	mean := Mean(x)
	p.sum = Grow(p.sum, len(x)+1)
	p.sumSq = Grow(p.sumSq, len(x)+1)
	sum, sumSq := p.sum, p.sumSq
	sum[0], sumSq[0] = 0, 0
	for i, v := range x {
		d := v - mean
		sum[i+1] = sum[i] + d
		sumSq[i+1] = sumSq[i] + d*d
	}
	n := len(x) - m + 1
	out := Grow(dst, n)
	w := c.width
	invM := 1 / float64(m)
	// Rounding leaves a constant window a variance residue of up to
	// about len(x)·ε of the prefix energy; below that it scores 0.
	tol := float64(len(x)) * epsilon
	// Σ x·(h−h̄) equals Σ(x−x̄w)(h−h̄): the centred template sums to
	// zero, so the window mean drops out of the numerator. It is summed
	// one step at a time over a block of lags: the lags are independent,
	// so the inner loop pipelines, and the block's slice of the prefix
	// sums stays in cache.
	const block = 1024
	for b := 0; b < n; b += block {
		raw := out[b:min(n, b+block)]
		clear(raw)
		for k, ck := range c.coef {
			lo := sum[b+k*w:][:len(raw)]
			hi := sum[b+(k+1)*w:][:len(raw)]
			for i := range raw {
				raw[i] += ck * (hi[i] - lo[i])
			}
		}
		for i := range raw {
			wSum := sum[b+i+m] - sum[b+i]
			xVar := sumSq[b+i+m] - sumSq[b+i] - wSum*wSum*invM
			v := 0.0
			if den := math.Sqrt(xVar * c.energy); xVar > tol*sumSq[b+i+m] && den > 0 {
				v = raw[i] / den
			}
			raw[i] = v
		}
	}
	return out
}

// TestScanMatchesRecordingLengthCorrelator compares every scan with the
// replaced correlator bit for bit: the kept lags are exactly those whose
// old score reached the threshold, with the old score, and the best
// |score| is the old maximum. The lag counts straddle one and two
// blocks; the 18-step template at width 96 (193 samples per bit) is
// longer than a block, so a block's window is mostly carried from the
// previous one; constant runs score 0 through the tolerance branch.
func TestScanMatchesRecordingLengthCorrelator(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	preamble := []float64{-1, 1, -1, -1, 1, 1, -1, -1, 1, -1, 1, -1, 1, 1, -1, 1, -1, -1}
	correlators := []*StepCorrelator{
		NewStepCorrelator([]float64{1, -1, 1, 1, -1}, 4),
		NewStepCorrelator(preamble, 8),
		NewStepCorrelator(preamble, 96),
	}
	inputs := map[string]func(n int) []float64{
		"noise": func(n int) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = 2.5 + rng.NormFloat64()
			}
			return x
		},
		"constant runs": func(n int) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
				if i >= 300 && i < 2300 {
					x[i] = 0.1
				}
			}
			return x
		},
		"zeros": func(n int) []float64 { return make([]float64, n) },
	}
	var scratch ScanScratch
	var ref refPrefixSums
	for _, c := range correlators {
		for _, lags := range []int{1, 1023, 1024, 1025, 2049} {
			for name, gen := range inputs {
				x := gen(lags + c.Len() - 1)
				want := refCorrelateWith(c, &ref, nil, x)
				wantBest := math.Inf(-1)
				for _, v := range want {
					wantBest = math.Max(wantBest, math.Abs(v))
				}
				for _, threshold := range []float64{0, 0.1, 0.3} {
					got, best := c.Scan(&scratch, nil, x, threshold, nil)
					if math.Float64bits(best) != math.Float64bits(wantBest) {
						t.Fatalf("%d-sample template, %d lags, %s: best %v, want %v", c.Len(), lags, name, best, wantBest)
					}
					k := 0
					for i, v := range want {
						if math.Abs(v) < threshold {
							continue
						}
						if k >= len(got) {
							t.Fatalf("%d-sample template, %d lags, %s, threshold %g: lag %d (%v) not kept", c.Len(), lags, name, threshold, i, v)
						}
						if got[k].Lag != i || math.Float64bits(got[k].Score) != math.Float64bits(v) {
							t.Fatalf("%d-sample template, %d lags, %s, threshold %g: kept lag %d is %+v, want {%d %v}",
								c.Len(), lags, name, threshold, k, got[k], i, v)
						}
						k++
					}
					if k != len(got) {
						t.Fatalf("%d-sample template, %d lags, %s, threshold %g: %d lags kept, want %d", c.Len(), lags, name, threshold, len(got), k)
					}
				}
			}
		}
	}
	if got, best := correlators[0].Scan(&scratch, nil, make([]float64, 19), 0, nil); got != nil || !math.IsInf(best, -1) {
		t.Fatalf("input shorter than the template: %v, best %v; want none, -Inf", got, best)
	}
}
