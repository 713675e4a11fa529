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
// node's complex field comes from the carrier's quadrature rail
// (Oscillator.NextSincos, AnalyticSine), not from a 2^17-point analytic
// signal. The FFTs serve carrier search (FindPeaks) and spectrograms.
// The radix-2 kernel is scheduled for the cache (block-by-block early
// stages, fused stage pairs, twiddles evaluated once per call) while
// computing every butterfly and twiddle exactly as the textbook loop
// does, so its output is bit-identical to it.
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
//
// It is the iterative radix-2 Cooley-Tukey transform: a bit-reversal
// permutation, then log2(n) stages of butterflies, the stage of half h
// with twiddles w_k = w_{k-1}·e^{∓iπ/h} from w_0 = 1. The schedule is
// tuned for long transforms, such as a whole recording's carrier
// search, with no change to any butterfly or twiddle value:
//   - each stage's twiddles come from that one recurrence, evaluated
//     once per call instead of once per block, so the multiply chain is
//     off the butterflies' critical path;
//   - the stages up to fftBlock points run block by block while the
//     block sits in L1;
//   - stages run in pairs (radix-2² passes), so each pass over the
//     array does the work of two;
//   - the bit reversal swaps tile by tile (bitReverse).
//
// Twiddles live in fixed-size arrays on the stack: nothing outlives the
// call (a per-size table cache would keep megabytes live for good).
func fftRadix2(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	bitReverse(x)
	fftStages(x, inverse)
}

// revTileBits sets the bit-reversal tile: 16×16 points, whose rows of
// 16 contiguous complex128 fill four cache lines each.
const revTileBits = 4

// bitReverse swaps each x[i] with x[rev(i)], rev reversing log2(len(x))
// bits. Past 2^(2·revTileBits) points it goes tile by tile so the
// swaps stay within a few kilobytes: writing i as (a, m, c), with a and
// c of revTileBits bits each, rev(i) is (rev c, rev m, rev a), so the
// tile with middle bits m trades places, transposed, with the one at
// rev m.
func bitReverse(x []complex128) {
	n := len(x)
	logN := bits.TrailingZeros(uint(n))
	if logN < 2*revTileBits {
		shift := 64 - uint(logN)
		for i := 0; i < n; i++ {
			j := int(bits.Reverse64(uint64(i)) >> shift)
			if j > i {
				x[i], x[j] = x[j], x[i]
			}
		}
		return
	}
	const t = 1 << revTileBits
	var rev [t]int
	for i := range rev {
		rev[i] = int(bits.Reverse8(uint8(i)) >> (8 - revTileBits))
	}
	hi := uint(logN - revTileBits)
	midShift := 64 - uint(logN-2*revTileBits)
	for m := 0; m < n>>(2*revTileBits); m++ {
		mr := int(bits.Reverse64(uint64(m)) >> midShift)
		if mr < m {
			continue // traded from the mr side
		}
		for a := 0; a < t; a++ {
			for c := 0; c < t; c++ {
				i := a<<hi | m<<revTileBits | c
				j := rev[c]<<hi | mr<<revTileBits | rev[a]
				if m < mr || i < j {
					x[i], x[j] = x[j], x[i]
				}
			}
		}
	}
}

// fftBlock is the largest block, in points, the first stages run on
// before moving to the next one: 16 KiB of complex128, about an L1.
const fftBlock = 1024

// fftChunk is how many twiddles of a stage wider than fftBlock are
// evaluated at a time.
const fftChunk = 256

// twiddleStep returns the recurrence ratio e^{∓2πi/size} of the stage
// of the given size, as the textbook loop computes it.
func twiddleStep(size int, sign float64) complex128 {
	step := 2 * math.Pi / float64(size) * sign
	return cmplx.Exp(complex(0, step))
}

// fftStages runs every butterfly stage over x, which is already in
// bit-reversed order.
func fftStages(x []complex128, inverse bool) {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// Stages of half h < blk, block by block. tw[h+k] holds w_k of the
	// stage of half h.
	blk := min(n, fftBlock)
	var tw [fftBlock]complex128
	for h := 1; h < blk; h <<= 1 {
		wStep := twiddleStep(2*h, sign)
		w := complex(1, 0)
		for k := h; k < 2*h; k++ {
			tw[k] = w
			w *= wStep
		}
	}
	h0 := 1
	if bits.TrailingZeros(uint(blk))%2 == 1 {
		h0 = 2 // an odd stage count: a lone radix-2 stage first
	}
	for start := 0; start < n; start += blk {
		b := x[start : start+blk]
		if h0 == 2 {
			radix2Pass(b, 1, 0, tw[1:2])
		}
		for h := h0; 4*h <= blk; h <<= 2 {
			radix22Pass(b, h, 0, tw[h:2*h], tw[2*h:3*h], tw[3*h:4*h])
		}
	}
	// Wider stages, in pairs over the whole array, their twiddles
	// evaluated fftChunk at a time. A pair's second stage also needs
	// w_{h+k} alongside w_k, so a second chain runs from the value the
	// recurrence reaches at index h.
	var wa, wb, wc [fftChunk]complex128
	h := blk
	for ; 4*h <= n; h <<= 2 {
		stepA, stepB := twiddleStep(2*h, sign), twiddleStep(4*h, sign)
		a, b := complex(1, 0), complex(1, 0)
		c := b
		for k := 0; k < h; k++ {
			c *= stepB
		}
		for k0 := 0; k0 < h; k0 += fftChunk {
			for k := range wa {
				wa[k], wb[k], wc[k] = a, b, c
				a *= stepA
				b *= stepB
				c *= stepB
			}
			radix22Pass(x, h, k0, wa[:], wb[:], wc[:])
		}
	}
	if 2*h == n { // an odd number of wide stages: the last runs alone
		step := twiddleStep(2*h, sign)
		w := complex(1, 0)
		for k0 := 0; k0 < h; k0 += fftChunk {
			for k := range wa {
				wa[k] = w
				w *= step
			}
			radix2Pass(x, h, k0, wa[:])
		}
	}
}

// radix2Pass applies the stage of half h to the butterflies k0 …
// k0+len(w)−1 of every 2h-point block of x, butterfly k0+k with
// twiddle w[k].
func radix2Pass(x []complex128, h, k0 int, w []complex128) {
	m := len(w)
	for s := k0; s < len(x); s += 2 * h {
		lo := x[s : s+m]
		hi := x[s+h:][:m]
		for k, wk := range w {
			a := lo[k]
			b := hi[k] * wk
			lo[k] = a + b
			hi[k] = a - b
		}
	}
}

// radix22Pass applies the stages of half h and 2h to the butterflies
// k0 … k0+len(wa)−1 of every 4h-point block of x: the first stage with
// twiddles wa (w_k of the stage of half h) in both 2h-point halves, then
// the second with wb and wc (w_k and w_{h+k} of the stage of half 2h).
// Each butterfly is the one radix2Pass would compute.
func radix22Pass(x []complex128, h, k0 int, wa, wb, wc []complex128) {
	m := len(wa)
	wb, wc = wb[:m], wc[:m]
	for s := k0; s < len(x); s += 4 * h {
		q0 := x[s : s+m]
		q1 := x[s+h:][:m]
		q2 := x[s+2*h:][:m]
		q3 := x[s+3*h:][:m]
		for k, w := range wa {
			a0, b0 := q0[k], q1[k]*w
			a2, b2 := q2[k], q3[k]*w
			y0, y1 := a0+b0, a0-b0
			y2, y3 := a2+b2, a2-b2
			t := y2 * wb[k]
			u := y3 * wc[k]
			q0[k], q2[k] = y0+t, y0-t
			q1[k], q3[k] = y1+u, y1-u
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
