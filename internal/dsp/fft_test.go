package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFFTKnownDelta(t *testing.T) {
	// FFT of a delta at index 0 is all ones.
	x := make([]complex128, 8)
	x[0] = 1
	X := FFT(x)
	for k, v := range X {
		if !approx(real(v), 1, 1e-12) || !approx(imag(v), 0, 1e-12) {
			t.Errorf("bin %d: got %v, want 1", k, v)
		}
	}
}

func TestFFTKnownSine(t *testing.T) {
	// A pure sine at bin 3 of a 64-point FFT should put energy only in
	// bins 3 and 61 (N-3).
	n := 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Sin(2*math.Pi*3*float64(i)/float64(n)), 0)
	}
	X := FFT(x)
	for k, v := range X {
		mag := cmplx.Abs(v)
		if k == 3 || k == n-3 {
			if !approx(mag, float64(n)/2, 1e-9) {
				t.Errorf("bin %d: |X| = %v, want %v", k, mag, float64(n)/2)
			}
		} else if mag > 1e-9 {
			t.Errorf("bin %d: |X| = %v, want 0", k, mag)
		}
	}
}

func TestFFTIFFTRoundTripPow2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 64, 256, 1024} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		y := IFFT(FFT(x))
		for i := range x {
			if cmplx.Abs(x[i]-y[i]) > 1e-9 {
				t.Fatalf("n=%d: round trip mismatch at %d: %v vs %v", n, i, x[i], y[i])
			}
		}
	}
}

func TestFFTIFFTRoundTripArbitraryN(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{3, 5, 7, 12, 100, 365, 999} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		y := IFFT(FFT(x))
		for i := range x {
			if cmplx.Abs(x[i]-y[i]) > 1e-8 {
				t.Fatalf("n=%d: round trip mismatch at %d: %v vs %v", n, i, x[i], y[i])
			}
		}
	}
}

// TestFFTKernelAllocs pins the in-place radix-2 kernel behind FFT,
// PowerSpectrum and FindPeaks at zero allocations, forward and inverse,
// from a short transform to a whole recording's.
func TestFFTKernelAllocs(t *testing.T) {
	for _, n := range []int{16, 1024, 1 << 17} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(float64(i%7)-3, float64(i%5)-2)
		}
		for _, inverse := range []bool{false, true} {
			if allocs := testing.AllocsPerRun(3, func() { fftRadix2(x, inverse) }); allocs > 0 {
				t.Errorf("fftRadix2(%d points, inverse %v): %.0f allocations, want 0", n, inverse, allocs)
			}
		}
	}
}

func TestBluesteinMatchesRadix2(t *testing.T) {
	// Zero-padding a power-of-two signal through Bluestein isn't directly
	// comparable, but a DFT computed naively should match both paths.
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{4, 6, 8, 9, 16, 21} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		got := FFT(x)
		for k := range want {
			if cmplx.Abs(want[k]-got[k]) > 1e-8 {
				t.Fatalf("n=%d bin %d: FFT=%v, naive=%v", n, k, got[k], want[k])
			}
		}
	}
}

func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			s += x[j] * cmplx.Exp(complex(0, -2*math.Pi*float64(k*j)/float64(n)))
		}
		out[k] = s
	}
	return out
}

func TestParseval(t *testing.T) {
	// Σ|x|² == (1/N)·Σ|X|² — property-based over random signals.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + rng.Intn(64)
		x := make([]complex128, n)
		var tEnergy float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			tEnergy += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		X := FFT(x)
		var fEnergy float64
		for _, v := range X {
			fEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		fEnergy /= float64(n)
		return math.Abs(tEnergy-fEnergy) <= 1e-6*math.Max(1, tEnergy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFFTLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32
		a := make([]complex128, n)
		b := make([]complex128, n)
		sum := make([]complex128, n)
		for i := range a {
			a[i] = complex(rng.NormFloat64(), 0)
			b[i] = complex(rng.NormFloat64(), 0)
			sum[i] = a[i] + b[i]
		}
		A, B, S := FFT(a), FFT(b), FFT(sum)
		for k := range S {
			if cmplx.Abs(S[k]-(A[k]+B[k])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPowerSpectrumPeak(t *testing.T) {
	fs := 96000.0
	n := 4096
	x := Sine(1.0, 15000, fs, 0, n)
	ps := PowerSpectrum(x)
	idx, _ := ArgMax(ps)
	got := BinFrequency(idx, n, fs)
	if math.Abs(got-15000) > fs/float64(n)+1 {
		t.Errorf("peak at %g Hz, want ~15000", got)
	}
}

func TestFindPeaksTwoTones(t *testing.T) {
	fs := 96000.0
	n := 8192
	x := Sine(1.0, 15000, fs, 0, n)
	y := Sine(0.8, 18000, fs, 0.3, n)
	for i := range x {
		x[i] += y[i]
	}
	peaks := FindPeaks(x, fs, 2, 1000, 1)
	if len(peaks) != 2 {
		t.Fatalf("got %d peaks, want 2", len(peaks))
	}
	if math.Abs(peaks[0].Frequency-15000) > 50 {
		t.Errorf("strongest peak at %g, want ~15000", peaks[0].Frequency)
	}
	if math.Abs(peaks[1].Frequency-18000) > 50 {
		t.Errorf("second peak at %g, want ~18000", peaks[1].Frequency)
	}
}

func TestFindPeaksSeparation(t *testing.T) {
	fs := 96000.0
	n := 8192
	x := Sine(1.0, 15000, fs, 0, n)
	// Close tone 200 Hz away must be suppressed by 1 kHz separation.
	y := Sine(0.9, 15200, fs, 0, n)
	for i := range x {
		x[i] += y[i]
	}
	peaks := FindPeaks(x, fs, 5, 1000, 1)
	for i := 0; i < len(peaks); i++ {
		for j := i + 1; j < len(peaks); j++ {
			if math.Abs(peaks[i].Frequency-peaks[j].Frequency) < 1000 {
				t.Errorf("peaks %g and %g violate separation", peaks[i].Frequency, peaks[j].Frequency)
			}
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1023, 1024}, {1024, 1024}, {1025, 2048},
	}
	for _, tc := range cases {
		if got := NextPow2(tc.in); got != tc.want {
			t.Errorf("NextPow2(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	if FFT(nil) != nil {
		t.Error("FFT(nil) should be nil")
	}
	if IFFT(nil) != nil {
		t.Error("IFFT(nil) should be nil")
	}
	if FFTReal(nil) != nil {
		t.Error("FFTReal(nil) should be nil")
	}
	if FindPeaks(nil, 1000, 3, 10, 0) != nil {
		t.Error("FindPeaks(nil) should be nil")
	}
}
