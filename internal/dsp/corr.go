package dsp

import "math"

// StepCorrelator is a zero-mean normalised cross-correlator (Pearson
// correlation per window) for a template that is constant over
// consecutive steps of width samples, such as an FM0 preamble, constant
// over each half-bit. With P the prefix sum of the mean-removed input,
// the numerator at lag i is Σₖ (cₖ − c̄)·(P[i+(k+1)w] − P[i+kw]), and
// the window variance comes from prefix sums of the input and its
// square: about two flops per step per lag, and no FFT.
//
// Each score lies in [−1, 1] and is invariant to the window's
// amplitude and DC offset. Local offset invariance matters for
// preamble detection on projected baseband streams, where residual
// carrier offsets vary along the recording.
//
// A StepCorrelator holds only its template; Scan works in a scratch
// the caller passes, so one correlator may serve several goroutines,
// each with its own scratch.
type StepCorrelator struct {
	coef   []float64 // step levels minus their mean
	width  int
	energy float64 // Σ (h − h̄)² over the template's samples
}

// NewStepCorrelator returns a correlator for the template that holds
// steps[k] over samples [k·width, (k+1)·width). It panics if steps is
// empty or width < 1.
func NewStepCorrelator(steps []float64, width int) *StepCorrelator {
	if len(steps) == 0 || width < 1 {
		panic("dsp: step correlator needs at least one step of width ≥ 1")
	}
	mean := Mean(steps)
	c := &StepCorrelator{coef: make([]float64, len(steps)), width: width}
	for k, v := range steps {
		c.coef[k] = v - mean
		c.energy += c.coef[k] * c.coef[k]
	}
	c.energy *= float64(width)
	return c
}

// Len returns the template length in samples.
func (c *StepCorrelator) Len() int { return len(c.coef) * c.width }

// LagScore is one lag a scan kept: its |score| reached the threshold.
type LagScore struct {
	Lag   int
	Score float64 // signed normalised correlation
}

// scanBlock is the number of lags a scan scores at a time.
const scanBlock = 1024

// ScanScratch is a scan's working memory: the prefix sums of the
// mean-removed input and of its square over one block of lags plus the
// template, and the block's scores — O(block + template), whatever the
// input's length. Correlators that never scan at once — one receiver's
// detectors for several bitrates — can share one.
type ScanScratch struct {
	sum, sumSq, raw []float64
}

// Scan scores the normalised correlation of x with the template at
// every lag i in [0, len(x)−Len()] and appends each lag whose |score|
// reaches threshold to dst, in ascending lag order. It returns dst and
// the largest |score| of any lag (−Inf when x is shorter than the
// template). A window with zero variance scores 0.
//
// The lags are scored a block at a time. The prefix sums cover only the
// block's windows and slide on from block to block with the same
// recurrence, so every score is the one a recording-length prefix sum
// gives, bit for bit. After each block, when compact is not nil, the
// kept lags are replaced by compact(kept, scored), where lags below
// scored have been scored: a caller that can tell some kept lags will
// never matter drops them there, so the kept list stays short.
func (c *StepCorrelator) Scan(s *ScanScratch, dst []LagScore, x []float64, threshold float64, compact func(kept []LagScore, scored int) []LagScore) ([]LagScore, float64) {
	best := math.Inf(-1)
	m := c.Len()
	if len(x) < m {
		return dst, best
	}
	// Removing the input mean first keeps the prefix sums small, so
	// their differences lose no precision on long recordings.
	mean := Mean(x)
	n := len(x) - m + 1
	span := min(n, scanBlock)
	s.sum = Grow(s.sum, span+m)
	s.sumSq = Grow(s.sumSq, span+m)
	s.raw = Grow(s.raw, span)
	// Entry j of the window holds the prefix sums of x[:b+j] for the
	// block starting at lag b.
	sum, sumSq := s.sum, s.sumSq
	sum[0], sumSq[0] = 0, 0
	filled := 1
	w := c.width
	invM := 1 / float64(m)
	// Rounding leaves a constant window a variance residue of up to
	// about len(x)·ε of the prefix energy; below that it scores 0.
	tol := float64(len(x)) * epsilon
	for b := 0; b < n; b += scanBlock {
		lags := min(n-b, scanBlock)
		for j := filled; j < lags+m; j++ {
			d := x[b+j-1] - mean
			sum[j] = sum[j-1] + d
			sumSq[j] = sumSq[j-1] + d*d
		}
		// Σ x·(h−h̄) equals Σ(x−x̄w)(h−h̄): the centred template sums
		// to zero, so the window mean drops out of the numerator. It is
		// summed one step at a time over the block: the lags are
		// independent, so the inner loop pipelines.
		raw := s.raw[:lags]
		clear(raw)
		for k, ck := range c.coef {
			lo := sum[k*w:][:lags]
			hi := sum[(k+1)*w:][:lags]
			for i := range raw {
				raw[i] += ck * (hi[i] - lo[i])
			}
		}
		for i, num := range raw {
			wSum := sum[i+m] - sum[i]
			xVar := sumSq[i+m] - sumSq[i] - wSum*wSum*invM
			v := 0.0
			if den := math.Sqrt(xVar * c.energy); xVar > tol*sumSq[i+m] && den > 0 {
				v = num / den
			}
			a := math.Abs(v)
			if a > best {
				best = a
			}
			if a >= threshold {
				dst = append(dst, LagScore{Lag: b + i, Score: v})
			}
		}
		if compact != nil {
			dst = compact(dst, b+lags)
		}
		// The next block's windows start where this block's lags end.
		copy(sum, sum[lags:lags+m])
		copy(sumSq, sumSq[lags:lags+m])
		filled = m
	}
	return dst, best
}

// epsilon is the float64 machine epsilon.
const epsilon = 0x1p-52

// Grow returns buf resliced to n, reallocated only when its capacity is
// short. The contents are not preserved: it sizes scratch that the
// caller overwrites.
func Grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// ArgMax returns the index and value of the maximum element of x.
// It returns (-1, -Inf) for empty input.
func ArgMax(x []float64) (int, float64) {
	idx, best := -1, math.Inf(-1)
	for i, v := range x {
		if v > best {
			idx, best = i, v
		}
	}
	return idx, best
}

// Mean returns the arithmetic mean of x (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// RMS returns the root-mean-square of x (0 for empty input).
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s / float64(len(x)))
}

// Add accumulates src into dst elementwise over the overlapping prefix and
// returns dst.
func Add(dst, src []float64) []float64 {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	for i := 0; i < n; i++ {
		dst[i] += src[i]
	}
	return dst
}
