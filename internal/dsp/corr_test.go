package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// The cross-correlation tests in this file and in mix_test.go exercise
// StepCorrelator, the package's normalised cross-correlator.

// randomSteps returns n step levels drawn from rng.
func randomSteps(rng *rand.Rand, n int) []float64 {
	steps := make([]float64, n)
	for i := range steps {
		steps[i] = rng.NormFloat64()
	}
	return steps
}

// expandSteps returns the sample-level template a StepCorrelator built
// from steps and width matches.
func expandSteps(steps []float64, width int) []float64 {
	out := make([]float64, 0, len(steps)*width)
	for _, v := range steps {
		for i := 0; i < width; i++ {
			out = append(out, v)
		}
	}
	return out
}

// pearson is the O(n·m) reference: the Pearson correlation of h with
// every full-overlap window of x.
func pearson(x, h []float64) []float64 {
	m := len(h)
	hMean := Mean(h)
	var hVar float64
	for _, v := range h {
		hVar += (v - hMean) * (v - hMean)
	}
	out := make([]float64, len(x)-m+1)
	for i := range out {
		w := x[i : i+m]
		wMean := Mean(w)
		var num, wVar float64
		for j, v := range w {
			num += (v - wMean) * (h[j] - hMean)
			wVar += (v - wMean) * (v - wMean)
		}
		out[i] = num / math.Sqrt(wVar*hVar)
	}
	return out
}

func TestCrossCorrelatePeakLocatesTemplate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	steps := randomSteps(rng, 8)
	tmpl := expandSteps(steps, 4)
	const offset = 211
	x := make([]float64, 512)
	for i := range x {
		x[i] = 0.05 * rng.NormFloat64()
	}
	for i, v := range tmpl {
		x[offset+i] += v
	}
	out := NewStepCorrelator(steps, 4).Correlate(nil, x)
	if want := len(x) - len(tmpl) + 1; len(out) != want {
		t.Fatalf("output length %d, want %d", len(out), want)
	}
	idx, val := ArgMax(out)
	if idx != offset {
		t.Errorf("peak at %d, want %d", idx, offset)
	}
	if val < 0.95 {
		t.Errorf("peak value %g, want near 1 at light noise", val)
	}
}

func TestCrossCorrelateMatchesDirectComputation(t *testing.T) {
	// Every two-sample window of a ramp rises by one, so it correlates
	// with the falling template {1, −1} at exactly −1.
	x := []float64{1, 2, 3, 4, 5}
	out := NewStepCorrelator([]float64{1, -1}, 1).Correlate(nil, x)
	if len(out) != 4 {
		t.Fatalf("length %d, want 4", len(out))
	}
	for i, v := range out {
		if math.Abs(v+1) > 1e-12 {
			t.Errorf("out[%d] = %g, want -1", i, v)
		}
	}
}

// TestStepCorrelatorMatchesPearsonReference checks the prefix-sum
// correlator against the brute-force Pearson correlation at the FM0
// preamble's half-bit widths for 194, 98 and 48 samples per bit, on a
// noisy recording with an offset, scaled preamble in it. One correlator
// serves inputs of several lengths, so its scratch is reused, and the
// output is written into a caller buffer.
func TestStepCorrelatorMatchesPearsonReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// The FM0 preamble 101100101 at one sample per half-bit.
	steps := []float64{-1, 1, -1, -1, 1, 1, -1, -1, 1, -1, 1, -1, 1, 1, -1, 1, -1, -1}
	for _, width := range []int{97, 49, 24} {
		tmpl := expandSteps(steps, width)
		c := NewStepCorrelator(steps, width)
		var dst []float64
		for _, n := range []int{len(tmpl), 3 * len(tmpl), 2 * len(tmpl)} {
			x := make([]float64, n)
			for i := range x {
				x[i] = 0.3 + rng.NormFloat64()
			}
			at := n - len(tmpl)
			for i, v := range tmpl {
				x[at+i] += 2 * v
			}
			dst = c.Correlate(dst, x)
			want := pearson(x, tmpl)
			if len(dst) != len(want) {
				t.Fatalf("width %d, n %d: length %d, want %d", width, n, len(dst), len(want))
			}
			for i := range want {
				if math.Abs(dst[i]-want[i]) > 1e-9 {
					t.Fatalf("width %d, n %d: lag %d = %.15g, reference %.15g", width, n, i, dst[i], want[i])
				}
			}
		}
	}
}

func TestCrossCorrelateDegenerateInputs(t *testing.T) {
	c := NewStepCorrelator([]float64{1, -1}, 3)
	if out := c.Correlate(nil, []float64{1, 2, 3, 4, 5}); out != nil {
		t.Errorf("input shorter than the template: got %v, want nil", out)
	}
	if out := c.Correlate(nil, nil); out != nil {
		t.Errorf("empty input: got %v, want nil", out)
	}
	if out := c.Correlate(nil, []float64{1, 1, 1, 0, 0, 0}); len(out) != 1 || math.Abs(out[0]-1) > 1e-12 {
		t.Errorf("input exactly one template long: got %v, want [1]", out)
	}
	for _, bad := range []struct {
		steps []float64
		width int
	}{{nil, 3}, {[]float64{1}, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewStepCorrelator(%v, %d) did not panic", bad.steps, bad.width)
				}
			}()
			NewStepCorrelator(bad.steps, bad.width)
		}()
	}
}

func TestNormalizedCrossCorrelatePerfectMatchScoresOne(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	steps := randomSteps(rng, 12)
	tmpl := expandSteps(steps, 4)
	const offset = 100
	x := make([]float64, 300)
	// Embed a scaled and DC-shifted copy: the score must still be 1 there.
	for i, v := range tmpl {
		x[offset+i] = 3*v + 7
	}
	out := NewStepCorrelator(steps, 4).Correlate(nil, x)
	idx, val := ArgMax(out)
	if idx != offset {
		t.Errorf("peak at %d, want %d", idx, offset)
	}
	if math.Abs(val-1) > 1e-9 {
		t.Errorf("peak score %g, want 1 (amplitude/offset invariance)", val)
	}
	for i, v := range out {
		if v > 1+1e-9 || v < -1-1e-9 {
			t.Errorf("out[%d] = %g outside [-1, 1]", i, v)
		}
	}
}

func TestNormalizedCrossCorrelateInvertedMatchScoresMinusOne(t *testing.T) {
	steps := []float64{1, -1, 1, 1, -1, -1, 1, -1}
	tmpl := expandSteps(steps, 2)
	x := make([]float64, 64)
	const offset = 20
	for i, v := range tmpl {
		x[offset+i] = -v
	}
	out := NewStepCorrelator(steps, 2).Correlate(nil, x)
	idx, val := ArgMaxAbs(out)
	if idx != offset {
		t.Errorf("peak at %d, want %d", idx, offset)
	}
	if math.Abs(val+1) > 1e-9 {
		t.Errorf("inverted match scored %g, want -1", val)
	}
}

func TestNormalizedCrossCorrelateZeroVarianceWindow(t *testing.T) {
	// A constant window has zero variance: it must score exactly 0, not
	// NaN and not a ratio of rounding residues. A constant run of 0.1
	// between noise leaves the prefix sums a small positive variance
	// residue in every window inside the run.
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 160)
	for i := range x {
		x[i] = rng.NormFloat64()
		if i >= 60 && i < 100 {
			x[i] = 0.1
		}
	}
	c := NewStepCorrelator([]float64{1, -1}, 2)
	out := c.Correlate(nil, x)
	for i, v := range out {
		if math.IsNaN(v) {
			t.Fatalf("out[%d] is NaN", i)
		}
		if i >= 60 && i+c.Len() <= 100 && v != 0 {
			t.Errorf("constant window at lag %d scored %g, want 0", i, v)
		}
	}
	if out := c.Correlate(nil, make([]float64, 10)); out[0] != 0 || out[6] != 0 {
		t.Errorf("all-zero input scored %v, want zeros", out)
	}
}

func TestArgMaxAndArgMaxAbs(t *testing.T) {
	if idx, val := ArgMax(nil); idx != -1 || !math.IsInf(val, -1) {
		t.Errorf("ArgMax(nil) = (%d, %g), want (-1, -Inf)", idx, val)
	}
	if idx, val := ArgMax([]float64{-3, 2, -1}); idx != 1 || val != 2 {
		t.Errorf("ArgMax = (%d, %g), want (1, 2)", idx, val)
	}
	// ArgMaxAbs returns the signed value at the abs-max position.
	if idx, val := ArgMaxAbs([]float64{-3, 2, -1}); idx != 0 || val != -3 {
		t.Errorf("ArgMaxAbs = (%d, %g), want (0, -3)", idx, val)
	}
	if idx, _ := ArgMaxAbs(nil); idx != -1 {
		t.Errorf("ArgMaxAbs(nil) index %d, want -1", idx)
	}
}

func TestCorrelateWithSharedPrefixSumsMatchesCorrelate(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	long := make([]float64, 5000)
	short := make([]float64, 700)
	for i := range long {
		long[i] = rng.NormFloat64() + 3
	}
	for i := range short {
		short[i] = rng.NormFloat64() - 1
	}
	a := NewStepCorrelator(randomSteps(rng, 18), 24)
	b := NewStepCorrelator(randomSteps(rng, 18), 6)
	var shared PrefixSums
	// Interleave the two correlators over one scratch, long input
	// first so the short one reads sums past its own input's end.
	for _, step := range []struct {
		c *StepCorrelator
		x []float64
	}{{a, long}, {b, short}, {a, short}, {b, long}} {
		want := step.c.Correlate(nil, step.x)
		dst := make([]float64, 3*len(step.x))
		for i := range dst {
			dst[i] = math.NaN()
		}
		got := step.c.CorrelateWith(&shared, dst[:1], step.x)
		if len(got) != len(want) {
			t.Fatalf("length %d, want %d", len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("lag %d: %v, want %v", i, got[i], want[i])
			}
		}
	}
}
