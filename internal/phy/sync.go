package phy

import (
	"fmt"
	"math"
	"math/cmplx"

	"pab/internal/dsp"
	"pab/internal/prof"
	"pab/internal/telemetry"
)

// PreambleBits is the 9-bit synchronisation pattern used on both links
// (the paper's downlink query "includes a 9-bit preamble", §5.1a; the
// uplink packet leads with the same length). The pattern maximises
// transition density under FM0 for sharp correlation.
var PreambleBits = []Bit{1, 0, 1, 1, 0, 0, 1, 0, 1}

// Sync describes a detected packet: where the preamble starts, how
// confident the correlator is, and the FM0 levels needed to decode what
// follows coherently.
type Sync struct {
	// Index is the sample index of the first preamble sample.
	Index int
	// Score is the normalised correlation magnitude (≤ 1).
	Score float64
	// StartLevel is the FM0 level preceding the preamble (±1).
	StartLevel float64
	// PayloadLevel is the FM0 level preceding the first payload bit —
	// pass it to FM0.DecodeFrom for the bits after the preamble.
	PayloadLevel float64
	// PayloadIndex is the sample index of the first payload sample.
	PayloadIndex int
}

// DetectPacket locates the start of an FM0 packet in a baseband
// amplitude waveform by normalised cross-correlation against the encoded
// preamble, resolving FM0's polarity ambiguity from the correlation sign.
// It returns an error when no point exceeds the threshold. The waveform
// need not be mean-centred; DetectPacket removes the mean itself.
func DetectPacket(wave []float64, m *FM0, threshold float64) (Sync, error) {
	cands, err := DetectPacketCandidates(wave, m, threshold, 1, 0)
	if err != nil {
		return Sync{}, err
	}
	return cands[0], nil
}

// DetectPacketCandidates returns up to maxK candidate packet starts,
// strongest first, separated by at least minSeparation samples (default:
// one preamble length). Multiple candidates let a receiver disambiguate
// when payload structure correlates with the preamble template as well —
// it can test each candidate and keep the one that decodes.
func DetectPacketCandidates(wave []float64, m *FM0, threshold float64, maxK, minSeparation int) ([]Sync, error) {
	return NewDetector(m).Candidates(wave, threshold, maxK, minSeparation)
}

// Detector runs DetectPacketCandidates repeatedly for one FM0
// configuration, reusing its scratch from call to call — a receiver's
// coarse and refining searches over one recording. It must not be used
// from several goroutines at once.
type Detector struct {
	m    *FM0
	corr *dsp.StepCorrelator
	s    *DetectScratch
}

// DetectScratch is the working memory of Detector.Candidates: the
// correlator's prefix sums, the scores, the lags above the threshold
// and the returned candidates. Detectors that never run at once — one
// receiver's detectors for several bitrates — can share one, so only
// one recording-length copy stays alive.
type DetectScratch struct {
	prefix dsp.PrefixSums
	scores []float64
	above  []int
	out    []Sync
}

// NewDetector returns a detector for m's encoding of the preamble,
// with scratch of its own.
func NewDetector(m *FM0) *Detector { return NewSharedDetector(m, new(DetectScratch)) }

// NewSharedDetector returns a detector for m's encoding of the preamble
// that works in s, shared with every other detector built on s.
func NewSharedDetector(m *FM0, s *DetectScratch) *Detector {
	return &Detector{m: m, corr: preambleCorrelator(m), s: s}
}

// Candidates is DetectPacketCandidates on the detector's FM0. The
// returned slice is the scratch's: the next Candidates call on any
// detector sharing it overwrites it, so copy anything kept longer.
func (d *Detector) Candidates(wave []float64, threshold float64, maxK, minSeparation int) ([]Sync, error) {
	st := prof.Start(prof.StageSync)
	defer st.Stop(len(wave))
	m, cc, s := d.m, d.corr, d.s
	if len(wave) < cc.Len() {
		return nil, fmt.Errorf("phy: waveform shorter than preamble (%d < %d)", len(wave), cc.Len())
	}
	if maxK < 1 {
		maxK = 1
	}
	if minSeparation <= 0 {
		minSeparation = cc.Len()
	}
	corr := cc.CorrelateWith(&s.prefix, s.scores, wave)
	s.scores = corr
	// FM0's start level is unknown, so the preamble may appear inverted:
	// search |corr| and recover the polarity from the sign. Only lags at
	// or above the threshold can be picked — a few percent of a coarse
	// projection — so the greedy search walks those alone, dropping the
	// ones within minSeparation of each pick.
	nAbove := 0
	for _, v := range corr {
		if math.Abs(v) >= threshold {
			nAbove++
		}
	}
	above := dsp.Grow(s.above, nAbove)
	s.above = above
	nAbove = 0
	for i, v := range corr {
		if math.Abs(v) >= threshold {
			above[nAbove] = i
			nAbove++
		}
	}
	out := dsp.Grow(s.out, maxK)
	s.out = out
	n := 0
	for ; n < maxK; n++ {
		bestIdx, bestAbs := -1, threshold
		for _, i := range above {
			if a := math.Abs(corr[i]); a >= bestAbs {
				bestIdx, bestAbs = i, a
			}
		}
		if bestIdx < 0 {
			break
		}
		val := corr[bestIdx]
		start := 1.0
		if val < 0 {
			start = -1
		}
		out[n] = Sync{
			Index:        bestIdx,
			Score:        math.Abs(val),
			StartLevel:   start,
			PayloadLevel: finalLevel(PreambleBits, start),
			PayloadIndex: bestIdx + len(PreambleBits)*m.SamplesPerBit,
		}
		kept := 0
		for _, i := range above {
			if i < bestIdx-minSeparation || i >= bestIdx+minSeparation {
				above[kept] = i
				kept++
			}
		}
		above = above[:kept]
	}
	out = out[:n]
	if len(out) == 0 {
		telemetry.Inc(telemetry.MPhySyncMissesTotal)
		_, best := dsp.ArgMaxAbs(corr)
		return nil, fmt.Errorf("phy: no preamble found (best %.3f < threshold %.3f)", math.Abs(best), threshold)
	}
	telemetry.Inc(telemetry.MPhySyncDetectsTotal)
	telemetry.ObserveN(telemetry.MPhySyncCandidates, telemetry.DefCountBuckets, float64(len(out)))
	telemetry.ObserveN(telemetry.MPhySyncPeak, syncPeakBuckets, out[0].Score)
	return out, nil
}

// finalLevel is the FM0 level after bits, encoded from start (+1 or
// −1): the level Encode returns, without the waveform.
func finalLevel(bits []Bit, start float64) float64 {
	level := start
	for _, b := range bits {
		level = -level // boundary inversion, every bit
		if b == 0 {
			level = -level // mid-bit inversion for data-0
		}
	}
	return level
}

// halfBits is FM0 at one sample per half-bit: its encoding of a bit
// sequence is the half-bit levels of every other FM0's.
var halfBits = FM0{SamplesPerBit: 2}

// preambleCorrelator returns a normalised correlator against m's
// encoding of the preamble from level +1, which is constant over each
// half-bit.
func preambleCorrelator(m *FM0) *dsp.StepCorrelator {
	return dsp.NewStepCorrelator(halfBits.EncodeTemplate(PreambleBits), m.SamplesPerBit/2)
}

// syncPeakBuckets resolve the normalised correlation range [0, 1].
var syncPeakBuckets = []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1}

// EstimateCFO estimates the residual carrier frequency offset (Hz) of a
// complex baseband signal from the phase slope over a known-modulus
// segment (e.g. the preamble region). The paper's receiver needs this
// because projector and hydrophone run on independent oscillators
// (§5.1b, footnote 12).
func EstimateCFO(bb []complex128, fs float64) float64 {
	if len(bb) < 4 {
		return 0
	}
	// Average phase increment via the autocorrelation at lag 1, which is
	// robust to amplitude modulation (the modulation cancels in
	// conj(x[n])·x[n+1] as long as amplitude stays positive).
	var acc complex128
	for i := 1; i < len(bb); i++ {
		acc += bb[i] * cmplx.Conj(bb[i-1])
	}
	if acc == 0 {
		return 0
	}
	return cmplx.Phase(acc) * fs / (2 * math.Pi)
}

// CorrectCFO derotates a complex baseband signal by the given frequency
// offset (Hz), returning a new slice.
func CorrectCFO(bb []complex128, cfo, fs float64) []complex128 {
	return CorrectCFOInto(nil, bb, cfo, fs)
}

// CorrectCFOInto is CorrectCFO writing into dst's backing array when it
// is large enough. dst must not overlap bb.
func CorrectCFOInto(dst, bb []complex128, cfo, fs float64) []complex128 {
	out := dsp.Grow(dst, len(bb))
	if fs <= 0 {
		copy(out, bb)
		return out
	}
	w := -2 * math.Pi * cfo / fs
	for i, v := range bb {
		ph := w * float64(i)
		out[i] = v * complex(math.Cos(ph), math.Sin(ph))
	}
	return out
}

// MeasureSNR estimates the decision-point SNR (linear power ratio) of a
// two-level FM0 waveform, following the paper's method (§6.1a): the
// signal power is the squared modulation (channel) estimate and the
// noise power is the squared residual around the fitted levels. The
// statistic is computed on the decoder's actual decision variables —
// the mean of the central portion of each half-bit — so transition
// smear from receive filtering and intra-half-bit correlated
// disturbance are weighted exactly as the decoder experiences them.
//
// wave must be bit-aligned FM0 at samplesPerBit; bits are the decoded
// (or known) bits used to reconstruct the ideal waveform.
func MeasureSNR(wave []float64, bits []Bit, m *FM0) float64 {
	snr, _ := MeasureSNRInto(nil, wave, bits, m)
	return snr
}

// MeasureSNRInto is MeasureSNR computing its decision variables in
// means's backing array when it is large enough. It returns the SNR and
// the buffer, to be passed back in on the next call.
func MeasureSNRInto(means, wave []float64, bits []Bit, m *FM0) (float64, []float64) {
	if len(bits) == 0 {
		return 0, means
	}
	n := len(bits) * m.SamplesPerBit
	if len(wave) < n {
		return 0, means
	}
	wave = wave[:n]

	// One decision variable per half-bit: the mean of its central
	// third (edges carry deterministic filter smear).
	half := m.SamplesPerBit / 2
	q := half / 3
	means = dsp.Grow(means, 2*len(bits))
	for h := range means {
		start := h*half + q
		end := (h+1)*half - q
		if end <= start {
			start, end = h*half, (h+1)*half
		}
		sum := 0.0
		for i := start; i < end; i++ {
			sum += wave[i]
		}
		means[h] = sum / float64(end-start)
	}

	// Least-squares fit means ≈ a·lv + b against the ideal half-bit
	// levels, walking the FM0 encoding rule directly (boundary inversion
	// every bit, mid-bit inversion for data-0) instead of materialising
	// the ideal waveform — Encode allocated len(bits)·SamplesPerBit
	// floats per call, which the per-candidate SNR search multiplied
	// into the decode stage's dominant allocation. The start polarity
	// does not matter: flipping every level negates the fitted slope a
	// and leaves the signal estimate a² and the residuals unchanged, so
	// a single walk from +1 covers both assignments the old code tried.
	var sumI, sumW, sumIW float64
	level := 1.0
	h := 0
	for _, bit := range bits {
		level = -level
		sumI += level
		sumW += means[h]
		sumIW += level * means[h]
		h++
		if bit == 0 {
			level = -level
		}
		sumI += level
		sumW += means[h]
		sumIW += level * means[h]
		h++
	}
	nf := float64(len(means))
	sumII := nf // levels are ±1
	den := nf*sumII - sumI*sumI
	if den == 0 {
		return 0, means
	}
	a := (nf*sumIW - sumI*sumW) / den
	b := (sumW - a*sumI) / nf
	var noise float64
	level = 1.0
	h = 0
	for _, bit := range bits {
		level = -level
		d := means[h] - (a*level + b)
		noise += d * d
		h++
		if bit == 0 {
			level = -level
		}
		d = means[h] - (a*level + b)
		noise += d * d
		h++
	}
	noise /= nf
	sig := a * a // squared channel estimate (modulation amplitude)
	if noise <= 0 {
		return math.Inf(1), means
	}
	return sig / noise, means
}
