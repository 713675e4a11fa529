package phy

import (
	"fmt"
	"math"

	"pab/internal/dsp"
	"pab/internal/telemetry"
)

// FM0 is the paper's uplink line code (§3.2): the level inverts at every
// bit boundary, and a data-0 carries an additional mid-bit inversion.
// Encoded levels are ±1; a PAB node maps +1 to the reflective switch
// state and −1 to the absorptive state.
type FM0 struct {
	// SamplesPerBit is the (even) number of samples per bit interval.
	SamplesPerBit int
}

// NewFM0 validates the configuration.
func NewFM0(samplesPerBit int) (*FM0, error) {
	if samplesPerBit < 2 {
		return nil, fmt.Errorf("phy: FM0 needs ≥2 samples per bit, got %d", samplesPerBit)
	}
	if samplesPerBit%2 != 0 {
		return nil, fmt.Errorf("phy: FM0 samples per bit must be even, got %d", samplesPerBit)
	}
	return &FM0{SamplesPerBit: samplesPerBit}, nil
}

// Encode returns the ±1 level waveform for bits, starting from
// startLevel (+1 or −1) *after* the initial boundary inversion. The
// returned final level lets callers concatenate segments.
func (m *FM0) Encode(bits []Bit, startLevel float64) (wave []float64, finalLevel float64) {
	if startLevel >= 0 {
		startLevel = 1
	} else {
		startLevel = -1
	}
	half := m.SamplesPerBit / 2
	wave = make([]float64, 0, len(bits)*m.SamplesPerBit)
	level := startLevel
	for _, b := range bits {
		level = -level // boundary inversion, every bit
		for i := 0; i < half; i++ {
			wave = append(wave, level)
		}
		if b == 0 {
			level = -level // mid-bit inversion for data-0
		}
		for i := 0; i < half; i++ {
			wave = append(wave, level)
		}
	}
	return wave, level
}

// DecodeFrom recovers bits from a real-valued baseband waveform with a
// maximum-likelihood sequence decision (a two-state Viterbi over the
// running FM0 level), given the level that preceded the first bit
// (prevLevel = the Encode startLevel, ±1). The waveform must be aligned
// so sample 0 is the first sample of the first bit. The two amplitude
// levels need not be known: the decoder removes the waveform mean and
// works with signed correlations. Because the levels are estimated from
// the waveform itself, a window of at least two bits is needed — a lone
// '1' encodes to a constant waveform that carries no level reference.
//
// It returns the decoded bits and the winning path metric per bit (a
// soft quality measure).
func (m *FM0) DecodeFrom(wave []float64, nbits int, prevLevel float64) ([]Bit, float64) {
	return m.DecodeInto(nil, nil, wave, nbits, prevLevel)
}

// hop is one Viterbi back-pointer: the previous state and the bit
// leading to a state.
type hop struct {
	prev int
	bit  Bit
}

// Trellis is DecodeInto's back-pointer scratch, one pair of hops per
// decoded bit. It grows to the longest decode and is reused after; one
// Trellis must not be used from several goroutines at once.
type Trellis struct {
	back [][2]hop
}

// DecodeInto is DecodeFrom writing the bits into dst's backing array
// when it is large enough, with its back-pointers in t (nil: a fresh
// trellis).
func (m *FM0) DecodeInto(dst []Bit, t *Trellis, wave []float64, nbits int, prevLevel float64) ([]Bit, float64) {
	if nbits <= 0 || len(wave) < m.SamplesPerBit {
		return dst[:0], 0
	}
	if max := len(wave) / m.SamplesPerBit; nbits > max {
		nbits = max
	}
	telemetry.Inc(telemetry.MPhyFm0DecodesTotal)
	telemetry.Add(telemetry.MPhyFm0BitsTotal, int64(nbits))
	half := m.SamplesPerBit / 2
	mid := meanOf(wave[:nbits*m.SamplesPerBit])

	// Viterbi over the level entering each bit: state 0 ⇒ +1, 1 ⇒ −1.
	const neg = math.MaxFloat64
	metric := [2]float64{-neg, -neg}
	if prevLevel >= 0 {
		metric[0] = 0
	} else {
		metric[1] = 0
	}
	// back[i][s] is (previous state, bit) leading to state s after bit
	// i. A state no path reaches keeps the zero hop.
	if t == nil {
		t = &Trellis{}
	}
	t.back = dsp.Grow(t.back, nbits)
	back := t.back
	clear(back)
	for i := 0; i < nbits; i++ {
		seg := wave[i*m.SamplesPerBit : (i+1)*m.SamplesPerBit]
		m1 := meanOf(seg[:half]) - mid
		m2 := meanOf(seg[half:]) - mid
		var next [2]float64
		next[0], next[1] = -neg, -neg
		for s, lv := range [2]float64{1, -1} {
			//pablint:ignore floatcmp -MaxFloat64 is the exact unreachable-state sentinel this metric was initialised to
			if metric[s] == -neg {
				continue
			}
			// bit=1: halves (−lv, −lv); exit level −lv.
			m1Metric := metric[s] + (-lv)*m1 + (-lv)*m2
			exit1 := 1 - s // state index of −lv
			if m1Metric > next[exit1] {
				next[exit1] = m1Metric
				back[i][exit1] = hop{prev: s, bit: 1}
			}
			// bit=0: halves (−lv, +lv); exit level +lv.
			m0Metric := metric[s] + (-lv)*m1 + lv*m2
			exit0 := s // state index of +lv (unchanged)
			if m0Metric > next[exit0] {
				next[exit0] = m0Metric
				back[i][exit0] = hop{prev: s, bit: 0}
			}
		}
		metric = next
	}
	// Trace back from the better terminal state.
	state := 0
	if metric[1] > metric[0] {
		state = 1
	}
	total := metric[state]
	bits := dsp.Grow(dst, nbits)
	for i := nbits - 1; i >= 0; i-- {
		h := back[i][state]
		bits[i] = h.bit
		state = h.prev
	}
	return bits, total / float64(nbits)
}

// Decode is DecodeFrom with unknown entry level: it tries both and keeps
// the higher-metric result. Note that without an external polarity
// reference (normally the preamble) FM0 is ambiguous under level
// inversion, so Decode may return the bitwise complement sequence when
// handed an isolated waveform; use DecodeFrom with the polarity from
// DetectPacket in receiver chains.
func (m *FM0) Decode(wave []float64, nbits int) ([]Bit, float64) {
	bitsA, confA := m.DecodeFrom(wave, nbits, 1)
	bitsB, confB := m.DecodeFrom(wave, nbits, -1)
	if confA >= confB {
		return bitsA, confA
	}
	return bitsB, confB
}

// ThresholdDecode is the naive slicer baseline used by the ablation
// bench: it thresholds each half-bit at the waveform mean and reads the
// mid-bit transition directly, with no likelihood tracking.
func (m *FM0) ThresholdDecode(wave []float64, nbits int) []Bit {
	if nbits <= 0 || len(wave) < m.SamplesPerBit {
		return nil
	}
	if max := len(wave) / m.SamplesPerBit; nbits > max {
		nbits = max
	}
	half := m.SamplesPerBit / 2
	mid := meanOf(wave[:nbits*m.SamplesPerBit])
	bits := make([]Bit, 0, nbits)
	for i := 0; i < nbits; i++ {
		seg := wave[i*m.SamplesPerBit : (i+1)*m.SamplesPerBit]
		h1 := meanOf(seg[:half]) > mid
		h2 := meanOf(seg[half:]) > mid
		if h1 == h2 {
			bits = append(bits, 1)
		} else {
			bits = append(bits, 0)
		}
	}
	return bits
}

// EncodeTemplate returns the FM0 waveform of bits starting from level +1,
// for use as a correlation template (preamble detection).
func (m *FM0) EncodeTemplate(bits []Bit) []float64 {
	w, _ := m.Encode(bits, 1)
	return w
}

func meanOf(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Bitrate returns the data rate in bit/s at sample rate fs.
func (m *FM0) Bitrate(fs float64) float64 {
	if m.SamplesPerBit <= 0 {
		return 0
	}
	return fs / float64(m.SamplesPerBit)
}

// OccupiedBandwidth returns the approximate null-to-null baseband
// bandwidth of FM0 at bitrate rb: ≈2·rb (bi-phase codes occupy twice the
// bitrate). Used by the SNR-vs-bitrate analysis (Fig 8: "a higher bitrate
// requires spreading the transmit power over a wider bandwidth").
func OccupiedBandwidth(bitrate float64) float64 {
	return 2 * bitrate
}

// SamplesPerBitFor returns the even sample count per bit closest to
// fs/bitrate.
func SamplesPerBitFor(fs, bitrate float64) (int, error) {
	if fs <= 0 || bitrate <= 0 {
		return 0, fmt.Errorf("phy: fs and bitrate must be positive")
	}
	spb := int(math.Round(fs / bitrate))
	if spb%2 != 0 {
		spb++
	}
	if spb < 2 {
		return 0, fmt.Errorf("phy: bitrate %g too high for sample rate %g", bitrate, fs)
	}
	return spb, nil
}
