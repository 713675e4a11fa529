// Package dsp implements the signal-processing primitives the PAB receiver
// chain is built from: FFTs, Butterworth low-pass IIR filters,
// mixing/downconversion, envelope detection and correlation.
//
// Everything operates on float64 (real) or complex128 sample slices. The
// implementations favour clarity and numerical robustness, but the
// simulator runs them per exchange over recordings of ~10⁵ samples, so
// their cost shows. On the receive side, FFT-based preamble correlation
// once took about 45% of the decode CPU; preamble correlation now uses
// StepCorrelator, which needs no FFT, and the demodulator skips the
// backward filter pass below the decode gate (DownconvertLPFrom). Both
// also bound their memory: StepCorrelator.Scan keeps prefix sums over
// one block of lags plus the template, and DownconvertGatedFrom takes
// its input a block at a time, so neither holds a recording-length
// copy of its input. On the synthesis side no FFT runs either: the
// node's complex field is the carrier, a Phasor, times its envelope
// through the channel, not a 2^17-point analytic signal. The FFTs
// serve carrier search (FindPeaks), once per stream that auto-detects
// its carrier, so the radix-2 kernel is the textbook loop.
package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
)

// FFT returns the discrete Fourier transform of x. The input may be of any
// length: power-of-two lengths use an iterative radix-2 Cooley-Tukey
// transform, other lengths use Bluestein's chirp-z algorithm. The input
// slice is not modified.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	copy(out, x)
	if n&(n-1) == 0 {
		fftRadix2(out, false)
		return out
	}
	return bluestein(out, false)
}

// IFFT returns the inverse discrete Fourier transform of x, normalised by
// 1/N so that IFFT(FFT(x)) == x.
func IFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	copy(out, x)
	if n&(n-1) == 0 {
		fftRadix2(out, true)
	} else {
		out = bluestein(out, true)
	}
	inv := complex(1/float64(n), 0)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// FFTReal converts x to complex and returns its DFT.
func FFTReal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	if len(c) == 0 {
		return nil
	}
	if len(c)&(len(c)-1) == 0 {
		fftRadix2(c, false)
		return c
	}
	return bluestein(c, false)
}

// fftRadix2 transforms x in place. len(x) must be a power of two.
// When inverse is true the conjugate transform is computed (without the
// 1/N normalisation). It is the textbook iterative radix-2 Cooley-Tukey
// transform: a bit-reversal permutation, then log2(n) stages of
// butterflies, the stage of size s with twiddles w_k = w_{k-1}·e^{∓2πi/s}
// from w_0 = 1.
func fftRadix2(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
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

// bluestein computes the DFT of x (any length) via the chirp-z transform,
// which reduces to three power-of-two FFTs.
func bluestein(x []complex128, inverse bool) []complex128 {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// Chirp: w[k] = exp(sign·iπk²/n). Compute k² mod 2n to avoid overflow
	// and precision loss for large k.
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		chirp[k] = cmplx.Exp(complex(0, sign*math.Pi*float64(kk)/float64(n)))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	fftRadix2(a, false)
	fftRadix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	fftRadix2(a, true)
	out := make([]complex128, n)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		out[k] = a[k] * scale * chirp[k]
	}
	return out
}

// PowerSpectrum returns |X[k]|² of the DFT of x, for bins 0..N/2 (real
// input spectra are symmetric, so only the first half is meaningful).
func PowerSpectrum(x []float64) []float64 {
	X := FFTReal(x)
	half := len(X)/2 + 1
	ps := make([]float64, half)
	for i := 0; i < half; i++ {
		re, im := real(X[i]), imag(X[i])
		ps[i] = re*re + im*im
	}
	return ps
}

// BinFrequency returns the centre frequency in Hz of FFT bin k for an
// N-point transform at sample rate fs.
func BinFrequency(k, n int, fs float64) float64 {
	return float64(k) * fs / float64(n)
}

// Peak holds a detected spectral peak.
type Peak struct {
	Bin       int
	Frequency float64 // Hz
	Power     float64 // linear power, |X[k]|²
}

// FindPeaks locates up to maxPeaks local maxima in the power spectrum of x
// (sampled at fs), each at least minSeparation Hz from stronger peaks, and
// at least minPower in linear power. Peaks are returned strongest first.
// It is the receiver's mechanism for identifying the downlink carrier
// frequencies (paper §5.1b: "identifies the different transmitted
// frequencies on the downlink using FFT and peak detection").
func FindPeaks(x []float64, fs float64, maxPeaks int, minSeparation, minPower float64) []Peak {
	if len(x) == 0 || maxPeaks <= 0 {
		return nil
	}
	ps := PowerSpectrum(x)
	n := len(x)
	type cand struct {
		bin int
		pow float64
	}
	// Candidate counts are data-dependent (every local maximum above the
	// power floor); start from a modest capacity and let growth amortise.
	cands := make([]cand, 0, 32)
	for k := 1; k < len(ps)-1; k++ {
		if ps[k] >= ps[k-1] && ps[k] >= ps[k+1] && ps[k] >= minPower {
			cands = append(cands, cand{k, ps[k]})
		}
	}
	// Selection sort of the strongest candidates with separation control;
	// candidate counts are small (spectral maxima only).
	peaks := make([]Peak, 0, maxPeaks)
	used := make([]bool, len(cands))
	for len(peaks) < maxPeaks {
		best, bestIdx := -1.0, -1
		for i, c := range cands {
			if used[i] || c.pow <= best {
				continue
			}
			f := BinFrequency(c.bin, n, fs)
			tooClose := false
			for _, p := range peaks {
				if math.Abs(p.Frequency-f) < minSeparation {
					tooClose = true
					break
				}
			}
			if !tooClose {
				best, bestIdx = c.pow, i
			} else {
				used[i] = true
			}
		}
		if bestIdx < 0 {
			break
		}
		used[bestIdx] = true
		b := cands[bestIdx].bin
		peaks = append(peaks, Peak{
			Bin:       b,
			Frequency: BinFrequency(b, n, fs),
			Power:     cands[bestIdx].pow,
		})
	}
	return peaks
}

// NextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}
