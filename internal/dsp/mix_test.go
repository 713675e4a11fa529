package dsp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestOscillatorPhaseContinuity steps the oscillator past many phase
// wraps and checks every sample against the closed-form sinusoid.
func TestOscillatorPhaseContinuity(t *testing.T) {
	const f, fs = 15000.0, 96000.0
	o := NewOscillator(f, fs)
	for i := 0; i < 200; i++ {
		want := math.Sin(2 * math.Pi * f / fs * float64(i))
		if got := o.Next(); !approx(got, want, 1e-9) {
			t.Fatalf("sample %d = %g, want %g: oscillator is not phase continuous", i, got, want)
		}
	}
}

func TestSineAmplitudeAndFrequency(t *testing.T) {
	fs := 96000.0
	x := Sine(2.5, 15000, fs, 0, 9600)
	if r := RMS(x); math.Abs(r-2.5/math.Sqrt2) > 0.01 {
		t.Errorf("RMS = %g, want %g", r, 2.5/math.Sqrt2)
	}
	peaks := FindPeaks(x, fs, 1, 100, 0)
	if len(peaks) != 1 || math.Abs(peaks[0].Frequency-15000) > 20 {
		t.Errorf("peaks = %+v, want single 15 kHz", peaks)
	}
}

func TestDownconvertRecoversEnvelope(t *testing.T) {
	fs := 96000.0
	fc := 15000.0
	n := 19200
	// 15 kHz carrier with amplitude step 1.0 → 0.4 halfway (a backscatter
	// state change).
	x := make([]float64, n)
	w := 2 * math.Pi * fc / fs
	for i := range x {
		amp := 1.0
		if i >= n/2 {
			amp = 0.4
		}
		x[i] = amp * math.Sin(w*float64(i))
	}
	bb, err := DownconvertLP(x, fc, fs, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	env := Envelope(bb)
	// The complex envelope of A·sin is A/2 after mixing (half the energy
	// lands at 2fc and is filtered); scale by 2.
	first := 2 * Mean(env[n/8:3*n/8])
	second := 2 * Mean(env[5*n/8:7*n/8])
	if math.Abs(first-1.0) > 0.05 {
		t.Errorf("first level %g, want ~1.0", first)
	}
	if math.Abs(second-0.4) > 0.05 {
		t.Errorf("second level %g, want ~0.4", second)
	}
}

func TestDownconvertRejectsOtherCarrier(t *testing.T) {
	fs := 96000.0
	n := 19200
	x := Sine(1, 18000, fs, 0, n)
	bb, err := DownconvertLP(x, 15000, fs, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	env := Envelope(bb)
	if m := Mean(env[n/4 : 3*n/4]); m > 0.01 {
		t.Errorf("18 kHz leakage into 15 kHz channel: %g", m)
	}
}

// TestDownconvertLPFromMatchesFullDemodulation checks the gated
// demodulator bit for bit (==) against the full one sliced at from, and
// the full one against its definition: Downconvert, then a forward
// filter pass and a backward pass done by reversing, filtering and
// reversing back.
func TestDownconvertLPFromMatchesFullDemodulation(t *testing.T) {
	const fs, fc, cutoff = 96000.0, 15000.0, 2000.0
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, 4801)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*fc/fs*float64(i)+0.3) + 0.2*rng.NormFloat64()
	}
	lp, err := DesignButterworthLowpass(cutoff, fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	mixed := Downconvert(x, fc, fs)
	re := make([]float64, len(x))
	im := make([]float64, len(x))
	for i, c := range mixed {
		re[i], im[i] = real(c), imag(c)
	}
	backward := func(y []float64) []float64 {
		slices.Reverse(y)
		y = lp.Filter(y)
		slices.Reverse(y)
		return y
	}
	re, im = backward(lp.Filter(re)), backward(lp.Filter(im))
	full, err := DownconvertLP(x, fc, fs, cutoff, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full {
		if full[i] != complex(re[i], im[i]) {
			t.Fatalf("DownconvertLP[%d] = %v, forward-backward reference %v", i, full[i], complex(re[i], im[i]))
		}
	}
	for _, from := range []int{0, 1, len(x) / 2, len(x) - 1, len(x)} {
		got, err := DownconvertLPFrom(x, fc, fs, cutoff, 4, from)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(x)-from {
			t.Fatalf("from %d: length %d, want %d", from, len(got), len(x)-from)
		}
		for i, v := range got {
			if v != full[from+i] {
				t.Fatalf("from %d: sample %d = %v, full demodulation %v", from, from+i, v, full[from+i])
			}
		}
	}
	for _, from := range []int{-1, len(x) + 1} {
		if _, err := DownconvertLPFrom(x, fc, fs, cutoff, 4, from); err == nil {
			t.Errorf("from %d outside the input: no error", from)
		}
	}
}

func TestAmplitudeEnvelope(t *testing.T) {
	fs := 96000.0
	n := 9600
	x := Sine(0.8, 15000, fs, 0, n)
	env, err := AmplitudeEnvelope(x, fs, 1500, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := Mean(env[n/4 : 3*n/4])
	if math.Abs(m-0.8) > 0.05 {
		t.Errorf("envelope %g, want ~0.8", m)
	}
}

func TestDecimate(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	got := Decimate(x, 3)
	want := []float64{0, 3, 6, 9}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	// Factor 1 copies.
	same := Decimate(x, 1)
	same[0] = 99
	if x[0] == 99 {
		t.Error("Decimate(x,1) must copy, not alias")
	}
}

func TestCrossCorrelatePeakAtOffset(t *testing.T) {
	steps := []float64{1, -1, 1, 1, -1}
	x := make([]float64, 100)
	copy(x[40:], steps)
	corr := correlate(NewStepCorrelator(steps, 1), x)
	idx, _ := ArgMax(corr)
	if idx != 40 {
		t.Errorf("correlation peak at %d, want 40", idx)
	}
}

func TestNormalizedCrossCorrelateBounds(t *testing.T) {
	steps := []float64{1, -1, 1, 1, -1, -1, 1}
	x := make([]float64, 500)
	for i := range x {
		x[i] = math.Sin(float64(i) * 0.7)
	}
	copy(x[200:], expandSteps(steps, 3))
	corr := correlate(NewStepCorrelator(steps, 3), x)
	for i, v := range corr {
		if v > 1+1e-9 || v < -1-1e-9 {
			t.Fatalf("normalised corr out of bounds at %d: %g", i, v)
		}
	}
	idx, v := ArgMax(corr)
	if idx != 200 || v < 0.999 {
		t.Errorf("peak (%d, %g), want (200, ~1)", idx, v)
	}
}

func TestArgMaxEdgeCases(t *testing.T) {
	if idx, _ := ArgMax(nil); idx != -1 {
		t.Error("ArgMax(nil) index should be -1")
	}
	idx, v := argMaxAbs([]float64{1, -5, 3})
	if idx != 1 || v != -5 {
		t.Errorf("argMaxAbs = (%d, %g), want (1, -5)", idx, v)
	}
}

func TestStatsHelpers(t *testing.T) {
	if Mean(nil) != 0 || RMS(nil) != 0 {
		t.Error("empty stats should be 0")
	}
	if !approx(Mean([]float64{1, 2, 3}), 2, 1e-12) {
		t.Error("Mean wrong")
	}
	if !approx(RMS([]float64{3, 4}), math.Sqrt(12.5), 1e-12) {
		t.Error("RMS wrong")
	}
	dst := []float64{1, 1, 1}
	Add(dst, []float64{1, 2})
	if dst[0] != 2 || dst[1] != 3 || dst[2] != 1 {
		t.Error("Add wrong")
	}
}

// dirtyComplex returns a buffer of n NaN samples with spare capacity:
// an Into variant must overwrite what it returns and ignore the rest.
func dirtyComplex(n int) []complex128 {
	buf := make([]complex128, 2*n)
	for i := range buf {
		buf[i] = complex(math.NaN(), math.Inf(1))
	}
	return buf[:n]
}

func TestDownconvertGatedIntoMatchesLPFrom(t *testing.T) {
	const fs, fc, cutoff = 96000.0, 15000.0, 2000.0
	rng := rand.New(rand.NewSource(10))
	x := make([]float64, 3001)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*fc/fs*float64(i)+0.7) + 0.2*rng.NormFloat64()
	}
	for _, order := range []int{4, 5, 18} { // 18: a cascade too long for the stack state
		lp, err := DesignButterworthLowpass(cutoff, fs, order)
		if err != nil {
			t.Fatal(err)
		}
		for _, from := range []int{0, 1, len(x) / 3, len(x)} {
			want, err := DownconvertLPFrom(x, fc, fs, cutoff, order, from)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DownconvertGatedInto(dirtyComplex(len(x)), x, fc, fs, lp, from)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("order %d, from %d: length %d, want %d", order, from, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("order %d, from %d: sample %d = %v, want %v", order, from, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDownconvertGatedFromMatchesOneBlock feeds the gated demodulator
// block by block through one reused buffer, dirtied before every
// block, and requires the baseband DownconvertGatedInto returns from
// the whole input, bit for bit, with the gate before, inside and after
// the first block.
func TestDownconvertGatedFromMatchesOneBlock(t *testing.T) {
	const fs, fc, cutoff = 96000.0, 15000.0, 2000.0
	rng := rand.New(rand.NewSource(13))
	x := make([]float64, 3001)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*fc/fs*float64(i)+0.2) + 0.2*rng.NormFloat64()
	}
	lp, err := DesignButterworthLowpass(cutoff, fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, block := range []int{1, 7, 512, len(x), 2 * len(x)} {
		buf := make([]float64, block)
		next := func(off, k int) []float64 {
			if k < 1 || k > block || off+k > len(x) {
				t.Fatalf("block %d: asked for %d samples at %d", block, k, off)
			}
			for i := range buf {
				buf[i] = math.NaN()
			}
			copy(buf, x[off:off+k])
			return buf[:k]
		}
		for _, from := range []int{0, 1, 5, 600, len(x) - 1, len(x)} {
			want, err := DownconvertGatedInto(nil, x, fc, fs, lp, from)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DownconvertGatedFrom(dirtyComplex(len(x)), len(x), block, next, fc, fs, lp, from)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("block %d, from %d: length %d, want %d", block, from, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("block %d, from %d: sample %d = %v, want %v", block, from, i, got[i], want[i])
				}
			}
		}
	}
	if _, err := DownconvertGatedFrom(nil, 10, 4, nil, fc, fs, lp, 11); err == nil {
		t.Error("gate past the input: no error")
	}
}

// TestMixSampleMatchesCosSin pins the batch mixer's math.Sincos to the
// math.Cos/math.Sin pair it replaced, bit for bit, at the first 2²¹
// sample phases of every carrier the repository configures — 15 and
// 18 kHz (the paper's recto-piezos), 13.5 and 16.5 kHz (the FDMA band
// edges) at 96 kHz, and the streaming tests' 3 kHz at 12 kHz and
// 2 kHz at 8 kHz — and at random phases across ±5·10⁶ rad.
func TestMixSampleMatchesCosSin(t *testing.T) {
	old := func(v, w float64, i int) complex128 {
		ph := w * float64(i)
		return complex(v*math.Cos(ph), -v*math.Sin(ph))
	}
	same := func(a, b complex128) bool {
		return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
			math.Float64bits(imag(a)) == math.Float64bits(imag(b))
	}
	pairs := []struct{ fc, fs float64 }{
		{15000, 96000}, {18000, 96000}, {13500, 96000}, {16500, 96000},
		{3000, 12000}, {2000, 8000},
	}
	const v = 0.734 // any non-trivial sample value
	for _, p := range pairs {
		w := 2 * math.Pi * p.fc / p.fs
		for i := 0; i < 1<<21; i++ {
			if got, want := mixSample(v, w, i), old(v, w, i); !same(got, want) {
				t.Fatalf("%g Hz at %g Hz, sample %d: %v, want %v", p.fc, p.fs, i, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 1<<20; k++ {
		ph := (2*rng.Float64() - 1) * 5e6
		if got, want := mixSample(v, ph, 1), old(v, ph, 1); !same(got, want) {
			t.Fatalf("phase %v: %v, want %v", ph, got, want)
		}
	}
}
