package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// The cross-correlation tests in this file and in mix_test.go exercise
// StepCorrelator, the package's normalised cross-correlator.

// correlate returns c's score at every lag of x (nil when x is shorter
// than the template), from a scan that keeps every lag.
func correlate(c *StepCorrelator, x []float64) []float64 {
	return correlateIn(new(ScanScratch), c, x)
}

// correlateIn is correlate scanning in s.
func correlateIn(s *ScanScratch, c *StepCorrelator, x []float64) []float64 {
	lags, _ := c.Scan(s, nil, x, 0, nil)
	if len(lags) == 0 {
		return nil
	}
	out := make([]float64, len(lags))
	for i, l := range lags {
		if l.Lag != i {
			panic("scan at threshold 0 skipped a lag")
		}
		out[i] = l.Score
	}
	return out
}

// argMaxAbs returns the index and signed value of the element of x with
// the largest absolute value, the first on ties, or (−1, −Inf) for
// empty input.
func argMaxAbs(x []float64) (int, float64) {
	idx, best := -1, math.Inf(-1)
	for i, v := range x {
		if a := math.Abs(v); a > best {
			idx, best = i, a
		}
	}
	if idx < 0 {
		return -1, math.Inf(-1)
	}
	return idx, x[idx]
}

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
	out := correlate(NewStepCorrelator(steps, 4), x)
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
	out := correlate(NewStepCorrelator([]float64{1, -1}, 1), x)
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
// serves inputs of several lengths in one scratch.
func TestStepCorrelatorMatchesPearsonReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// The FM0 preamble 101100101 at one sample per half-bit.
	steps := []float64{-1, 1, -1, -1, 1, 1, -1, -1, 1, -1, 1, -1, 1, 1, -1, 1, -1, -1}
	for _, width := range []int{97, 49, 24} {
		tmpl := expandSteps(steps, width)
		c := NewStepCorrelator(steps, width)
		var scratch ScanScratch
		for _, n := range []int{len(tmpl), 3 * len(tmpl), 2 * len(tmpl)} {
			x := make([]float64, n)
			for i := range x {
				x[i] = 0.3 + rng.NormFloat64()
			}
			at := n - len(tmpl)
			for i, v := range tmpl {
				x[at+i] += 2 * v
			}
			dst := correlateIn(&scratch, c, x)
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
	if out := correlate(c, []float64{1, 2, 3, 4, 5}); out != nil {
		t.Errorf("input shorter than the template: got %v, want nil", out)
	}
	if out := correlate(c, nil); out != nil {
		t.Errorf("empty input: got %v, want nil", out)
	}
	if out := correlate(c, []float64{1, 1, 1, 0, 0, 0}); len(out) != 1 || math.Abs(out[0]-1) > 1e-12 {
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
	out := correlate(NewStepCorrelator(steps, 4), x)
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
	out := correlate(NewStepCorrelator(steps, 2), x)
	idx, val := argMaxAbs(out)
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
	out := correlate(c, x)
	for i, v := range out {
		if math.IsNaN(v) {
			t.Fatalf("out[%d] is NaN", i)
		}
		if i >= 60 && i+c.Len() <= 100 && v != 0 {
			t.Errorf("constant window at lag %d scored %g, want 0", i, v)
		}
	}
	if out := correlate(c, make([]float64, 10)); out[0] != 0 || out[6] != 0 {
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
	// argMaxAbs returns the signed value at the abs-max position.
	if idx, val := argMaxAbs([]float64{-3, 2, -1}); idx != 0 || val != -3 {
		t.Errorf("argMaxAbs = (%d, %g), want (0, -3)", idx, val)
	}
	if idx, _ := argMaxAbs(nil); idx != -1 {
		t.Errorf("argMaxAbs(nil) index %d, want -1", idx)
	}
}

// TestScanSharedScratchMatchesFresh interleaves two correlators over
// one scratch, long input first so the short one's window starts
// dirty and oversized, and requires each scan to keep what a scan in a
// fresh scratch keeps.
func TestScanSharedScratchMatchesFresh(t *testing.T) {
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
	var shared ScanScratch
	for _, step := range []struct {
		c *StepCorrelator
		x []float64
	}{{a, long}, {b, short}, {a, short}, {b, long}} {
		for _, threshold := range []float64{0, 0.2} {
			want, wantBest := step.c.Scan(new(ScanScratch), nil, step.x, threshold, nil)
			got, gotBest := step.c.Scan(&shared, make([]LagScore, 1, 4), step.x, threshold, nil)
			got = got[1:]
			if len(got) != len(want) || math.Float64bits(gotBest) != math.Float64bits(wantBest) {
				t.Fatalf("threshold %g: %d lags, best %v; fresh scratch %d, %v", threshold, len(got), gotBest, len(want), wantBest)
			}
			for i := range want {
				if got[i].Lag != want[i].Lag || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("threshold %g: lag %d: %+v, want %+v", threshold, i, got[i], want[i])
				}
			}
		}
	}
}

// TestScanCompactsAfterEveryBlock checks that a scan hands its kept
// lags to compact after each block, with the count of lags scored so
// far, and carries on from what compact returns.
func TestScanCompactsAfterEveryBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	c := NewStepCorrelator(randomSteps(rng, 6), 3)
	x := make([]float64, 2*scanBlock+100+c.Len()-1)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want, wantBest := c.Scan(new(ScanScratch), nil, x, 0.2, nil)
	var calls []int
	got, best := c.Scan(new(ScanScratch), nil, x, 0.2, func(kept []LagScore, scored int) []LagScore {
		calls = append(calls, scored)
		for _, l := range kept {
			if l.Lag >= scored {
				t.Fatalf("kept lag %d not yet scored (%d)", l.Lag, scored)
			}
		}
		return kept[:len(kept)/2*2] // drop the last lag when the count is odd
	})
	if len(calls) != 3 || calls[0] != scanBlock || calls[1] != 2*scanBlock || calls[2] != 2*scanBlock+100 {
		t.Fatalf("compact saw scored counts %v, want %d, %d, %d", calls, scanBlock, 2*scanBlock, 2*scanBlock+100)
	}
	if math.Float64bits(best) != math.Float64bits(wantBest) || len(got) > len(want) {
		t.Fatalf("best %v and %d lags, want %v and at most %d", best, len(got), wantBest, len(want))
	}
	// What compact kept is the plain scan's lags less those it dropped.
	k := 0
	for _, l := range got {
		for k < len(want) && want[k].Lag != l.Lag {
			k++
		}
		if k == len(want) || math.Float64bits(want[k].Score) != math.Float64bits(l.Score) {
			t.Fatalf("kept lag %+v is not the plain scan's", l)
		}
	}
}
