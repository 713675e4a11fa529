package dsp

// Hot-path tier fixtures (allocloop, invhoist): the dsp
// fixture package is in Config.HotPkgs, so these functions are analyzed
// as decode-path code. Slice parameters seed the sample-scaling taint;
// loops over them carry the stronger "sample-scaled loop" label.

import (
	"fmt"
	"math"
)

// Scale allocates a scratch slice per sample; the output buffer itself
// is preallocated, so appending into it stays legal.
func Scale(xs []float64, scale float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, v := range xs {
		tmp := make([]float64, 1) // want "make inside sample-scaled loop in Scale"
		tmp[0] = v * scale
		out = append(out, tmp[0]) // legal: capacity preallocated above
	}
	return out
}

// Grow appends without preallocating capacity.
func Grow(xs []float64) []float64 {
	var out []float64
	for _, v := range xs {
		if v > 0 {
			out = append(out, v) // want "append to out inside sample-scaled loop in Grow"
		}
	}
	return out
}

// Boxes builds a composite literal and a closure per sample.
func Boxes(xs []float64) float64 {
	total := 0.0
	for i := range xs {
		pair := []float64{xs[i], -xs[i]}       // want "composite literal allocates per iteration of sample-scaled loop in Boxes"
		f := func() float64 { return pair[0] } // want "closure literal inside sample-scaled loop in Boxes"
		total += f()
	}
	return total
}

// Render copies every frame through a string conversion.
func Render(frames [][]byte) int {
	n := 0
	for _, f := range frames {
		s := string(f) // want "string\(\[\]byte\) conversion inside sample-scaled loop in Render"
		n += len(s)
	}
	return n
}

// Labels formats per sample; the error exit in Validate shows the legal
// counterpart.
func Labels(xs []float64) []string {
	out := make([]string, 0, len(xs))
	for _, v := range xs {
		out = append(out, fmt.Sprintf("%g", v)) // want "fmt.Sprintf inside sample-scaled loop in Labels"
	}
	return out
}

// Validate leaves the loop through its fmt.Errorf — error exits are
// exempt from the fmt-in-loop rule.
func Validate(xs []float64) error {
	for i, v := range xs {
		if math.IsNaN(v) {
			return fmt.Errorf("sample %d is NaN", i)
		}
	}
	return nil
}

// Accumulate news a box per sample; the second loop suppresses the same
// finding with a reasoned directive.
func Accumulate(xs []float64) float64 {
	total := 0.0
	for _, v := range xs {
		p := new(float64) // want "new inside sample-scaled loop in Accumulate"
		*p = v
		total += *p
	}
	for _, v := range xs {
		//pablint:ignore allocloop fixture: scratch box handed to a downstream API that requires a pointer
		q := new(float64)
		*q = total * v
		total += *q
	}
	return total
}

// Retry allocates in a bounded loop — still flagged, weaker label.
func Retry() []float64 {
	var last []float64
	for attempt := 0; attempt < 3; attempt++ {
		last = make([]float64, 8) // want "make inside loop in Retry"
	}
	return last
}

// Rotate recomputes an invariant carrier phase per sample.
func Rotate(xs []float64, phase float64) []float64 {
	out := make([]float64, len(xs))
	for i := range xs {
		out[i] = xs[i] * math.Cos(phase) // want "loop-invariant math.Cos call inside sample-scaled loop in Rotate"
	}
	return out
}

// Normalize divides by an invariant norm per sample.
func Normalize(xs []float64, norm float64) []float64 {
	out := make([]float64, len(xs))
	for i := range xs {
		out[i] = xs[i] / norm // want "division by loop-invariant norm inside sample-scaled loop in Normalize"
	}
	return out
}

// Lookup re-hashes the same key twice per sample.
func Lookup(xs []float64, gains map[string]float64, key string) float64 {
	total := 0.0
	for _, v := range xs {
		total += v * gains[key] * (1 + gains[key]) // want "map load gains\[key\] repeated 2 times"
	}
	return total
}
