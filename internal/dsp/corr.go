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
// Each output lies in [−1, 1] and is invariant to the window's
// amplitude and DC offset. Local offset invariance matters for
// preamble detection on projected baseband streams, where residual
// carrier offsets vary along the recording.
//
// A StepCorrelator reuses its prefix-sum scratch across calls, so one
// value must not be used from several goroutines at once.
type StepCorrelator struct {
	coef    []float64 // step levels minus their mean
	width   int
	energy  float64 // Σ (h − h̄)² over the template's samples
	scratch PrefixSums
}

// PrefixSums is a StepCorrelator's working memory: prefix sums of the
// mean-removed input and of its square, one entry per input sample.
// Correlators that never run at once — one receiver's detectors for
// several bitrates — can share one through CorrelateWith, so only one
// recording-length copy stays alive.
type PrefixSums struct {
	sum, sumSq []float64
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

// Correlate returns the normalised correlation of x with the template
// at every lag i in [0, len(x)−Len()], written into dst's backing array
// when it is large enough. A window with zero variance scores 0. It
// returns nil when x is shorter than the template.
func (c *StepCorrelator) Correlate(dst, x []float64) []float64 {
	return c.CorrelateWith(&c.scratch, dst, x)
}

// CorrelateWith is Correlate computing its prefix sums in p instead of
// the correlator's own scratch.
func (c *StepCorrelator) CorrelateWith(p *PrefixSums, dst, x []float64) []float64 {
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

// ArgMaxAbs returns the index and value of the element with the largest
// absolute value.
func ArgMaxAbs(x []float64) (int, float64) {
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

// Energy returns Σx².
func Energy(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return s
}

// Scale multiplies every element by k in place and returns x.
func Scale(x []float64, k float64) []float64 {
	for i := range x {
		x[i] *= k
	}
	return x
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
