package phy

import (
	"errors"
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

// ErrNoPreamble is a detector's miss: no lag's |correlation| reached
// the threshold. It is a constant, so a miss costs no allocation.
var ErrNoPreamble = errors.New("phy: no preamble found")

// Detector locates FM0 packet starts in baseband amplitude waveforms by
// normalised cross-correlation against the encoded preamble, reusing its
// scratch from call to call — a receiver's coarse and refining searches
// over one recording. It must not be used from several goroutines at
// once.
type Detector struct {
	m    *FM0
	corr *dsp.StepCorrelator
	s    *DetectScratch
}

// DetectScratch is the working memory of Detector.Candidates: the
// correlator's sliding scan window, the lags whose |correlation|
// reached the threshold that a pick can still reach, and the returned
// candidates. For up to maxSureRanks picks that is about a scan block
// and two preambles of lags, whatever the waveform's length. Detectors
// that never run at once — one receiver's detectors for several
// bitrates — can share one.
type DetectScratch struct {
	scan  dsp.ScanScratch
	above []dsp.LagScore
	out   []Sync
	// dropUnpickable's sliding window and marks, one per kept lag.
	win  []int32
	mark []byte
}

// NewSharedDetector returns a detector for m's encoding of the preamble
// that works in s, shared with every other detector built on s.
func NewSharedDetector(m *FM0, s *DetectScratch) *Detector {
	return &Detector{m: m, corr: preambleCorrelator(m), s: s}
}

// Candidates returns up to maxK candidate packet starts in wave,
// strongest first, separated by at least minSeparation samples (default:
// one preamble length), resolving FM0's polarity ambiguity from the
// correlation sign. The waveform need not be mean-centred. Multiple
// candidates let a receiver disambiguate when payload structure
// correlates with the preamble template as well — it can test each
// candidate and keep the one that decodes. A miss returns ErrNoPreamble
// without allocating. The returned slice is the scratch's: the
// next Candidates call on any detector sharing it overwrites it, so copy
// anything kept longer.
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
	// FM0's start level is unknown, so the preamble may appear inverted:
	// the scan keeps the lags whose |corr| reaches the threshold, and
	// the polarity comes from the sign. Only those lags can be picked,
	// so the greedy search walks them alone, dropping the ones within
	// minSeparation of each pick. On a coarse projection nearly half the
	// lags reach the threshold, so whenever the kept list has doubled
	// since it was last pruned, the lags no pick can reach are dropped.
	pruneAt := 0
	above, _ := cc.Scan(&s.scan, s.above[:0], wave, threshold, func(kept []dsp.LagScore, scored int) []dsp.LagScore {
		if len(kept) < pruneAt {
			return kept
		}
		kept = s.dropUnpickable(kept, scored, minSeparation, maxK)
		pruneAt = 2*len(kept) + pruneSlack
		return kept
	})
	s.above = above
	out := dsp.Grow(s.out, maxK)
	s.out = out
	n := 0
	for ; n < maxK; n++ {
		bestIdx, bestAbs, val := -1, threshold, 0.0
		for _, l := range above {
			if a := math.Abs(l.Score); a >= bestAbs {
				bestIdx, bestAbs, val = l.Lag, a, l.Score
			}
		}
		if bestIdx < 0 {
			break
		}
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
		for _, l := range above {
			if l.Lag < bestIdx-minSeparation || l.Lag >= bestIdx+minSeparation {
				above[kept] = l
				kept++
			}
		}
		above = above[:kept]
	}
	out = out[:n]
	if len(out) == 0 {
		telemetry.Inc(telemetry.MPhySyncMissesTotal)
		return nil, ErrNoPreamble
	}
	telemetry.Inc(telemetry.MPhySyncDetectsTotal)
	telemetry.ObserveN(telemetry.MPhySyncCandidates, telemetry.DefCountBuckets, float64(len(out)))
	telemetry.ObserveN(telemetry.MPhySyncPeak, syncPeakBuckets, out[0].Score)
	return out, nil
}

// pruneSlack is how many kept lags Candidates lets accumulate past twice
// the last pruned count before it prunes again.
const pruneSlack = 1024

// maxSureRanks bounds the picks for which dropUnpickable also applies
// its rank floor (see there).
const maxSureRanks = 16

// outranks reports whether the greedy search picks a before b: the
// larger |score| first, and of equal ones the later lag.
func outranks(a, b dsp.LagScore) bool {
	x, y := math.Abs(a.Score), math.Abs(b.Score)
	return x > y || x >= y && a.Lag > b.Lag
}

// Marks dropOnce keeps per kept lag; the zero mark keeps the lag.
const (
	sure byte = iota + 1 // picked, or reached only after the search's last pick
	drop                 // never picked
)

// dropUnpickable removes from kept, sorted by lag, lags the greedy
// search of Candidates — up to maxK picks, sep apart — can never pick,
// whatever the lags from scored on (not yet scored) turn out to be.
// A pick p drops the lags in [p−sep, p+sep), so only a pick in
// (l−sep, l+sep] can drop l. A lag l that outranks every other kept lag
// there is therefore sure: the search reaches it before anything that
// could drop it, and picks it unless it has already made maxK picks.
// So a lag is never picked when a sure lag outranks it within
// [l−sep, l+sep), or when maxK sure lags outrank it anywhere. Dropping
// such lags changes no pick. Repeating until nothing drops leaves
// little besides the sure lags and the last 2·sep lags scored.
func (s *DetectScratch) dropUnpickable(kept []dsp.LagScore, scored, sep, maxK int) []dsp.LagScore {
	for {
		n := len(kept)
		kept = s.dropOnce(kept, scored, sep, maxK)
		if len(kept) == n {
			return kept
		}
	}
}

// dropOnce is one pass of dropUnpickable: it marks the sure lags with
// a sliding-window maximum, then drops what they outrank.
func (s *DetectScratch) dropOnce(kept []dsp.LagScore, scored, sep, maxK int) []dsp.LagScore {
	s.win = dsp.Grow(s.win, len(kept))
	s.mark = dsp.Grow(s.mark, len(kept))
	win, mark := s.win, s.mark
	clear(mark)
	// win[head:tail] holds the kept indices in (l−sep, l+sep] that no
	// later one there outranks, best first: its head is the window's
	// best lag.
	head, tail, next := 0, 0, 0
	// top holds the best sure lags, best first, up to maxK of them.
	var topBuf [maxSureRanks]dsp.LagScore
	top := topBuf[:0]
	anySure := false
	for i, l := range kept {
		if l.Lag+sep >= scored {
			break // its window is not all scored yet
		}
		for ; next < len(kept) && kept[next].Lag <= l.Lag+sep; next++ {
			for tail > head && outranks(kept[next], kept[win[tail-1]]) {
				tail--
			}
			win[tail] = int32(next)
			tail++
		}
		for kept[win[head]].Lag <= l.Lag-sep {
			head++
		}
		if int(win[head]) != i {
			continue
		}
		mark[i] = sure
		anySure = true
		if maxK <= maxSureRanks && (len(top) < maxK || outranks(l, top[len(top)-1])) {
			if len(top) < maxK {
				top = top[:len(top)+1]
			}
			k := len(top) - 1
			for ; k > 0 && outranks(l, top[k-1]); k-- {
				top[k] = top[k-1]
			}
			top[k] = l
		}
	}
	if !anySure {
		return kept
	}
	from := 0 // first kept index a sure lag's range can reach
	for i, l := range kept {
		if mark[i] != sure {
			continue
		}
		for kept[from].Lag < l.Lag-sep {
			from++
		}
		for k := from; k < len(kept) && kept[k].Lag < l.Lag+sep; k++ {
			if k != i && outranks(l, kept[k]) {
				mark[k] = drop
			}
		}
	}
	if len(top) == maxK {
		floor := top[maxK-1]
		for k, l := range kept {
			if outranks(floor, l) {
				mark[k] = drop
			}
		}
	}
	n := 0
	for i, l := range kept {
		if mark[i] != drop {
			kept[n] = l
			n++
		}
	}
	return kept[:n]
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

// CorrectCFOInto derotates a complex baseband signal by the given
// frequency offset (Hz), writing into dst's backing array when it is
// large enough. dst may be bb itself, which corrects bb in place, but
// must not otherwise overlap it.
func CorrectCFOInto(dst, bb []complex128, cfo, fs float64) []complex128 {
	out := dsp.Grow(dst, len(bb))
	if fs <= 0 {
		copy(out, bb)
		return out
	}
	rot := NewDerotator(cfo, fs)
	for i, v := range bb {
		out[i] = v * rot.At(i)
	}
	return out
}

// Derotator is the rotation CorrectCFOInto applies, in radians per sample.
type Derotator float64

// NewDerotator returns the rotation that removes an offset of cfo Hz
// at sample rate fs, or none when fs ≤ 0.
func NewDerotator(cfo, fs float64) Derotator {
	if fs <= 0 {
		return 0
	}
	return Derotator(-2 * math.Pi * cfo / fs)
}

// At returns the unit phasor CorrectCFOInto multiplies sample i by.
// math.Sincos shares one argument reduction between the two and
// returns the bits math.Cos and math.Sin do.
func (w Derotator) At(i int) complex128 {
	sin, cos := math.Sincos(float64(w) * float64(i))
	return complex(cos, sin)
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
