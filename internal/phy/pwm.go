package phy

import (
	"fmt"
	"math"
)

// PWM is the downlink line code (paper §3.2): the projector keys the
// carrier with pulses whose width encodes the bit — a '1' is twice as
// long as a '0' (§5.1a) — and the node decodes with a simple envelope
// detector plus edge timing, which costs near-zero power.
//
// Symbol layout per bit: carrier ON for 1 unit ('0') or 2 units ('1'),
// then OFF for 1 unit. A node measures the interval between falling
// edges: 2 units ⇒ '0', 3 units ⇒ '1'.
type PWM struct {
	// UnitSamples is the number of samples in one PWM time unit.
	UnitSamples int
}

// NewPWM validates the configuration.
func NewPWM(unitSamples int) (*PWM, error) {
	if unitSamples < 2 {
		return nil, fmt.Errorf("phy: PWM needs ≥2 samples per unit, got %d", unitSamples)
	}
	return &PWM{UnitSamples: unitSamples}, nil
}

// Keying calls run for each stretch of the keying envelope of bits, in
// order, with its level (1 = carrier on, 0 = off) and its length in
// samples. Each bit is ON for 1 unit ('0') or 2 units ('1') and then
// OFF for 1 unit, so the final bit's falling edge exists.
func (p *PWM) Keying(bits []Bit, run func(level float64, samples int)) {
	for _, b := range bits {
		on := p.UnitSamples
		if b != 0 {
			on *= 2
		}
		run(1, on)
		run(0, p.UnitSamples)
	}
}

// SymbolSamples returns the sample count of one encoded bit b.
func (p *PWM) SymbolSamples(b Bit) int {
	if b == 0 {
		return 2 * p.UnitSamples
	}
	return 3 * p.UnitSamples
}

// EncodedLength returns the total sample count for a bit string.
func (p *PWM) EncodedLength(bits []Bit) int {
	n := 0
	for _, b := range bits {
		n += p.SymbolSamples(b)
	}
	return n
}

// SchmittTrigger discretises an envelope into a binary sequence with
// hysteresis: it switches high above highFrac·peak and low below
// lowFrac·peak — the TXB0302 trigger + level shifter of §4.2.1.
func SchmittTrigger(env []float64, highFrac, lowFrac float64) []bool {
	if len(env) == 0 {
		return nil
	}
	peak := 0.0
	for _, v := range env {
		if v > peak {
			peak = v
		}
	}
	hi := highFrac * peak
	lo := lowFrac * peak
	out := make([]bool, len(env))
	state := false
	for i, v := range env {
		if !state && v >= hi {
			state = true
		} else if state && v <= lo {
			state = false
		}
		out[i] = state
	}
	return out
}

// Decode recovers bits from a Schmitt-triggered binary stream by timing
// the intervals between falling edges (the MCU's interrupt-driven decode,
// §4.2.2). It tolerates ±30% timing error per symbol.
func (p *PWM) Decode(levels []bool) []Bit {
	if p.UnitSamples <= 0 {
		return nil
	}
	edges := fallingEdges(levels, p.UnitSamples)
	if len(edges) == 0 {
		return nil
	}
	bits := make([]Bit, 0, len(edges))
	// The first pulse has no preceding falling edge; measure its width
	// from its rising edge.
	if first := firstBitFromRise(levels, edges[0], p.UnitSamples); first >= 0 {
		bits = append(bits, Bit(first))
	}
	for i := 1; i < len(edges); i++ {
		interval := float64(edges[i] - edges[i-1])
		units := interval / float64(p.UnitSamples)
		switch {
		case math.Abs(units-2) <= 0.6:
			bits = append(bits, 0)
		case math.Abs(units-3) <= 0.6:
			bits = append(bits, 1)
		default:
			// Unrecognised interval: glitch or silence between packets —
			// stop rather than emit garbage.
			return bits
		}
	}
	return bits
}

// fallingEdges returns the indices one past each true→false transition.
// unit bounds the edge density: a pulse is at least one ON unit plus one
// OFF unit, so edges are ≥ 2·unit samples apart.
func fallingEdges(levels []bool, unit int) []int {
	edges := make([]int, 0, len(levels)/(2*unit)+1)
	for i := 1; i < len(levels); i++ {
		if levels[i-1] && !levels[i] {
			edges = append(edges, i)
		}
	}
	return edges
}

// firstBitFromRise measures the width of the first pulse (up to the first
// falling edge) and maps it to a bit, or −1 if ambiguous.
func firstBitFromRise(levels []bool, firstFall, unit int) int {
	rise := -1
	for i := 1; i < firstFall; i++ {
		if !levels[i-1] && levels[i] {
			rise = i
			break
		}
	}
	if rise < 0 && len(levels) > 0 && levels[0] {
		rise = 0
	}
	if rise < 0 {
		return -1
	}
	width := float64(firstFall-rise) / float64(unit)
	switch {
	case math.Abs(width-1) <= 0.4:
		return 0
	case math.Abs(width-2) <= 0.4:
		return 1
	default:
		return -1
	}
}
