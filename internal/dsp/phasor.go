package dsp

import (
	"math"
	"sort"
)

// phasorBlock is the stride of a Phasor's anchors, and phasorFine the
// length of its fine rotation table.
const (
	phasorBlock = 256
	phasorFine  = 16
)

// Phasor is the carrier e^{jωi} at absolute sample index i, for one
// frequency and sample rate. Every carrier the simulator synthesizes or
// mixes with comes from one: the index b of each block of phasorBlock
// samples anchors the block with one math.Sincos(ω·b), and sample
// b+r of the block is that anchor times e^{jωr}, taken from two short
// tables as e^{jω·phasorFine·q}·e^{jωs} for r = phasorFine·q + s. A
// sample is therefore a function of its index alone, whatever the call
// that asks for it started at, so a stream mixed block by block equals
// the recording mixed at once, and at every anchor the phasor is
// math.Sincos(ω·b) bit for bit. Off the anchors it carries the anchor's
// argument rounding and a few 1e-16 of its own; the phase never
// accumulates from sample to sample. The tables are 32 entries, so a
// stream decoder can hold its own phasor for 0.5 KB.
type Phasor struct {
	w      float64
	coarse [phasorBlock / phasorFine]complex128 // e^{jω·phasorFine·q}
	fine   [phasorFine]complex128               // e^{jωs}
}

// NewPhasor returns the phasor of a carrier at f Hz sampled at fs Hz.
func NewPhasor(f, fs float64) *Phasor {
	p := &Phasor{w: 2 * math.Pi * f / fs}
	for q := range p.coarse {
		s, c := math.Sincos(p.w * float64(q*phasorFine))
		p.coarse[q] = complex(c, s)
	}
	for r := range p.fine {
		s, c := math.Sincos(p.w * float64(r))
		p.fine[r] = complex(c, s)
	}
	return p
}

// Omega returns the carrier's advance in radians per sample.
func (p *Phasor) Omega() float64 { return p.w }

// anchor returns e^{jωb}.
func (p *Phasor) anchor(b int) complex128 {
	s, c := math.Sincos(p.w * float64(b))
	return complex(c, s)
}

// Mix writes x[k]·e^{−jω(at+k)} into dst[k], which must hold len(x)
// samples: x, whose first sample has index at ≥ 0, mixed down by the
// carrier.
func (p *Phasor) Mix(dst []complex128, x []float64, at int) {
	for len(x) > 0 {
		r := at % phasorBlock
		n := min(len(x), phasorBlock-r)
		a := p.anchor(at - r)
		for j := 0; j < n; {
			s := (r + j) % phasorFine
			k := min(n-j, phasorFine-s)
			c0 := a * p.coarse[(r+j)/phasorFine]
			out, in := dst[j:j+k], x[j:j+k]
			for i, t := range p.fine[s : s+k] {
				c, v := c0*t, in[i]
				out[i] = complex(v*real(c), -v*imag(c))
			}
			j += k
		}
		x, dst, at = x[n:], dst[n:], at+n
	}
}

// Step is where a piecewise-constant complex envelope takes the value V,
// which holds from sample At up to the next step.
type Step struct {
	At int
	V  complex128
}

// Steps is a piecewise-constant complex envelope: 0 before its first
// step, then each step's value up to the next step, and the last step's
// for ever. Steps are in order of At. A keyed carrier's schedule is one
// whose values are its keying levels, ending in a step to 0 where the
// carrier stops.
type Steps []Step

// End returns the index of the last step: for a keyed carrier, its
// length in samples.
func (e Steps) End() int {
	if len(e) == 0 {
		return 0
	}
	return e[len(e)-1].At
}

// Modulate writes env(at+k)·e^{jω(at+k)} into dst[k]: the carrier
// modulated by env, from sample at ≥ 0 on. Where env is 0 the samples
// are exactly 0.
func (p *Phasor) Modulate(dst []complex128, at int, env Steps) {
	s := sort.Search(len(env), func(s int) bool { return env[s].At > at })
	for len(dst) > 0 {
		r := at % phasorBlock
		n := min(len(dst), phasorBlock-r)
		a := p.anchor(at - r)
		for j := 0; j < n; {
			// The value holding at sample at+j, and for how long.
			k := n - j
			if s < len(env) {
				k = min(k, env[s].At-at-j)
			}
			var v complex128
			if s > 0 {
				v = env[s-1].V
			}
			if v == 0 {
				clear(dst[j : j+k])
				j += k
			} else {
				for end := j + k; j < end; {
					f := (r + j) % phasorFine
					m := min(end-j, phasorFine-f)
					q, out := v*(a*p.coarse[(r+j)/phasorFine]), dst[j:j+m]
					for i, t := range p.fine[f : f+m] {
						out[i] = q * t
					}
					j += m
				}
			}
			for s < len(env) && env[s].At <= at+j {
				s++
			}
		}
		dst, at = dst[n:], at+n
	}
}
