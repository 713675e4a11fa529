// Package dsp implements the signal-processing primitives the PAB receiver
// chain is built from: FFTs, window functions, FIR and Butterworth IIR
// filters, mixing/downconversion, envelope detection and correlation.
//
// Everything operates on float64 (real) or complex128 sample slices. The
// implementations favour clarity and numerical robustness, but the
// receive chain runs them per decode over recordings of ~10⁵ samples, so
// their cost shows: FFT-based preamble correlation once took about 45% of
// the decode CPU. Preamble correlation now uses StepCorrelator, which
// needs no FFT, and the demodulator skips the backward filter pass below
// the decode gate (DownconvertLPFrom). The FFTs still serve carrier
// search, the analytic signal and long FIR convolutions.
package dsp

import (
	"fmt"
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
// 1/N normalisation).
func fftRadix2(x []complex128, inverse bool) {
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

// FrequencyBin returns the FFT bin index closest to frequency f for an
// N-point transform at sample rate fs.
func FrequencyBin(f float64, n int, fs float64) int {
	k := int(math.Round(f * float64(n) / fs))
	if k < 0 {
		k = 0
	}
	if k > n/2 {
		k = n / 2
	}
	return k
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

// Goertzel computes the DFT magnitude of x at a single frequency f (Hz,
// sample rate fs) using the Goertzel recurrence. It is cheaper than a full
// FFT when only one bin is needed (e.g. carrier power probes).
func Goertzel(x []float64, f, fs float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	k := f / fs * float64(n)
	w := 2 * math.Pi * k / float64(n)
	coeff := 2 * math.Cos(w)
	var s0, s1, s2 float64
	for _, v := range x {
		s0 = v + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	power := s1*s1 + s2*s2 - coeff*s1*s2
	if power < 0 {
		power = 0
	}
	return math.Sqrt(power)
}

// NextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

func validateLength(n int, what string) error {
	if n <= 0 {
		return fmt.Errorf("dsp: %s length must be positive, got %d", what, n)
	}
	return nil
}

// AnalyticSignal returns the complex analytic signal of x via the FFT
// method (negative frequencies zeroed, positive doubled): its real part
// is x and its imaginary part the Hilbert transform. Narrowband
// backscatter applies a complex reflection coefficient to the carrier —
// magnitude scales and phase shifts — which is exactly multiplication of
// the analytic signal.
func AnalyticSignal(x []float64) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	m := NextPow2(n)
	buf := make([]complex128, m)
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	fftRadix2(buf, false)
	// Keep DC and Nyquist, double positive frequencies, zero negatives.
	for k := 1; k < m/2; k++ {
		buf[k] *= 2
	}
	for k := m/2 + 1; k < m; k++ {
		buf[k] = 0
	}
	fftRadix2(buf, true)
	inv := complex(1/float64(m), 0)
	out := make([]complex128, n)
	for i := range out {
		out[i] = buf[i] * inv
	}
	return out
}

// Spectrogram computes the magnitude STFT of x: frames of winLen samples
// (Hann-windowed) every hop samples, each transformed and reduced to
// bins 0..winLen/2. Rows are time frames, columns frequency bins — the
// offline inspection view the paper's Audacity workflow provided.
func Spectrogram(x []float64, winLen, hop int) ([][]float64, error) {
	if winLen < 4 || winLen&(winLen-1) != 0 {
		return nil, fmt.Errorf("dsp: spectrogram window must be a power of two ≥ 4, got %d", winLen)
	}
	if hop < 1 {
		return nil, fmt.Errorf("dsp: hop must be ≥ 1, got %d", hop)
	}
	if len(x) < winLen {
		return nil, fmt.Errorf("dsp: input (%d) shorter than window (%d)", len(x), winLen)
	}
	win := Hann.Coefficients(winLen)
	nFrames := (len(x)-winLen)/hop + 1
	nBins := winLen/2 + 1
	out := make([][]float64, nFrames)
	// One flat backing array for all rows: a per-frame make turned the
	// frame loop into nFrames allocations and scattered the rows across
	// the heap.
	backing := make([]float64, nFrames*nBins)
	buf := make([]complex128, winLen)
	for f := 0; f < nFrames; f++ {
		start := f * hop
		for i := 0; i < winLen; i++ {
			buf[i] = complex(x[start+i]*win[i], 0)
		}
		fftRadix2(buf, false)
		row := backing[f*nBins : (f+1)*nBins : (f+1)*nBins]
		for k := range row {
			row[k] = cmplx.Abs(buf[k])
		}
		out[f] = row
	}
	return out, nil
}
