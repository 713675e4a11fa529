package phy

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"pab/internal/dsp"
)

// The tests in this file compare the detector, the sync scanner and
// the CFO rotation with verbatim copies of the code they replaced,
// bit for bit (math.Float64bits). The replaced code read a
// recording-length score array; scoresOf rebuilds one from a scan that
// keeps every lag, which internal/dsp's oracle test pins to the
// replaced correlator bit for bit.

// scoresOf returns c's score at every lag of x.
func scoresOf(c *dsp.StepCorrelator, x []float64) []float64 {
	return scoresIn(new(dsp.ScanScratch), nil, nil, c, x)
}

// scoresIn is scoresOf scanning in s and writing into dst's backing
// array, with lags as the scan's list.
func scoresIn(s *dsp.ScanScratch, lags []dsp.LagScore, dst []float64, c *dsp.StepCorrelator, x []float64) []float64 {
	lags, _ = c.Scan(s, lags[:0], x, 0, nil)
	out := dsp.Grow(dst, len(lags))
	for i, l := range lags {
		if l.Lag != i {
			panic("scan at threshold 0 skipped a lag")
		}
		out[i] = l.Score
	}
	return out
}

// refCandidates is the replaced Detector.Candidates after its
// correlation, verbatim: the greedy search over the lags of corr at or
// above the threshold, with the allocation of its scratch inlined. It
// returns nil on a miss.
func refCandidates(corr []float64, m *FM0, threshold float64, maxK, minSeparation, preLen int) []Sync {
	if maxK < 1 {
		maxK = 1
	}
	if minSeparation <= 0 {
		minSeparation = preLen
	}
	nAbove := 0
	for _, v := range corr {
		if math.Abs(v) >= threshold {
			nAbove++
		}
	}
	above := make([]int, nAbove)
	nAbove = 0
	for i, v := range corr {
		if math.Abs(v) >= threshold {
			above[nAbove] = i
			nAbove++
		}
	}
	out := make([]Sync, maxK)
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
	if n == 0 {
		return nil
	}
	return out[:n]
}

// sameSyncs reports whether two candidate lists agree bit for bit.
func sameSyncs(a, b []Sync) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Index != y.Index || x.PayloadIndex != y.PayloadIndex || x.StartLevel != y.StartLevel ||
			x.PayloadLevel != y.PayloadLevel || math.Float64bits(x.Score) != math.Float64bits(y.Score) {
			return false
		}
	}
	return true
}

// TestCandidatesMatchRecordingLengthSearch runs one shared detector
// over waves of several lengths and shapes and requires the replaced
// search's candidates at maxK 1, 8 and 20 (past the rank floor's
// bound) and at minimum separations 0 (one preamble), a few samples,
// one preamble and more than the wave. The ±1 waves hold exact copies
// of the preamble, upright and inverted, in a zero-mean sequence, so
// their windows score exactly equal |correlation|: the tie rule (the
// later lag) decides.
func TestCandidatesMatchRecordingLengthSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var scratch DetectScratch
	found := 0
	for _, spb := range []int{16, 48, 194} {
		m, _ := NewFM0(spb)
		det := NewSharedDetector(m, &scratch)
		preLen := len(PreambleBits) * spb
		tmpl := m.EncodeTemplate(PreambleBits)
		var waves [][]float64
		for _, n := range []int{preLen, 3 * preLen, 40 * preLen} {
			w := make([]float64, n)
			for i := range w {
				w[i] = 0.5*rng.NormFloat64() + 0.2
			}
			for at := rng.Intn(preLen / 2); at+preLen <= n; at += preLen + rng.Intn(3*preLen) {
				sign := 1.0
				if rng.Intn(2) == 0 {
					sign = -1
				}
				for i, v := range tmpl {
					w[at+i] += sign * 0.8 * v
				}
			}
			waves = append(waves, w)
		}
		ties := make([]float64, 12*preLen)
		for i := range ties {
			ties[i] = float64(1 - 2*(i%2))
		}
		for _, at := range []int{preLen, 4 * preLen, 8 * preLen} {
			for i, v := range tmpl {
				ties[at+i] = v
				ties[at+2*preLen+i] = -v
			}
		}
		waves = append(waves, ties)
		for _, w := range waves {
			corr := scoresOf(det.corr, w)
			for _, threshold := range []float64{0.275, 0.55, 0.9} {
				for _, maxK := range []int{1, 8, 20} {
					for _, sep := range []int{0, 5, preLen, 2 * len(w)} {
						want := refCandidates(corr, m, threshold, maxK, sep, preLen)
						got, err := det.Candidates(w, threshold, maxK, sep)
						if (err != nil) != (want == nil) || (err != nil && err != ErrNoPreamble) {
							t.Fatalf("spb %d, %d samples, threshold %g, maxK %d, sep %d: error %v, replaced search found %d",
								spb, len(w), threshold, maxK, sep, err, len(want))
						}
						if !sameSyncs(got, want) {
							t.Fatalf("spb %d, %d samples, threshold %g, maxK %d, sep %d:\n got %+v\nwant %+v",
								spb, len(w), threshold, maxK, sep, got, want)
						}
						found += len(got)
					}
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no candidates at all; the comparison is vacuous")
	}
}

// refGreedy is the replaced search over a list of lags above the
// threshold, sorted by lag: the picks' lags, best first.
func refGreedy(above []dsp.LagScore, maxK, sep int) []int {
	above = append([]dsp.LagScore(nil), above...)
	var picks []int
	for len(picks) < maxK {
		best := -1
		for k, l := range above {
			if best < 0 || math.Abs(l.Score) >= math.Abs(above[best].Score) {
				best = k
			}
		}
		if best < 0 {
			break
		}
		p := above[best].Lag
		picks = append(picks, p)
		kept := above[:0]
		for _, l := range above {
			if l.Lag < p-sep || l.Lag >= p+sep {
				kept = append(kept, l)
			}
		}
		above = kept
	}
	return picks
}

// TestDropUnpickableKeepsEveryPick drives dropUnpickable the way a scan
// does — on the lags scored so far, block after block — over random
// lists whose scores take few values, so ties are everywhere, and
// requires the search over what is left to pick what it picks over
// everything. Under -short or -race it runs a tenth of the lists.
func TestDropUnpickableKeepsEveryPick(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	var scratch DetectScratch
	levels := []float64{0.3, 0.4, 0.5, 0.6, 1}
	trials := 1000
	if testing.Short() || raceEnabled {
		trials = 100
	}
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(2000)
		density := rng.Float64()
		var all []dsp.LagScore
		for lag := 0; lag < n; lag++ {
			if rng.Float64() < density {
				v := levels[rng.Intn(len(levels))]
				if rng.Intn(2) == 0 {
					v = -v
				}
				all = append(all, dsp.LagScore{Lag: lag, Score: v})
			}
		}
		sep := 1 + rng.Intn(300)
		maxK := 1 + rng.Intn(20)
		block := 1 + rng.Intn(500)
		var kept []dsp.LagScore
		next := 0
		for scored := block; ; scored += block {
			scored = min(scored, n)
			for ; next < len(all) && all[next].Lag < scored; next++ {
				kept = append(kept, all[next])
			}
			kept = scratch.dropUnpickable(kept, scored, sep, maxK)
			if !sort.SliceIsSorted(kept, func(i, j int) bool { return kept[i].Lag < kept[j].Lag }) {
				t.Fatalf("trial %d: kept lags out of order", trial)
			}
			if scored == n {
				break
			}
		}
		want := refGreedy(all, maxK, sep)
		got := refGreedy(kept, maxK, sep)
		if len(got) != len(want) {
			t.Fatalf("trial %d (n %d, sep %d, maxK %d, block %d): picks %v, want %v", trial, n, sep, maxK, block, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n %d, sep %d, maxK %d, block %d): picks %v, want %v", trial, n, sep, maxK, block, got, want)
			}
		}
	}
}

// refScanner is the replaced SyncScanner.Scan, verbatim but for its
// correlation, which scoresOf rebuilds.
type refScanner struct {
	corr      *dsp.StepCorrelator
	threshold float64
	carry     []float64
	nCarry    int
	next      int64
	// Scratch for the test's own speed.
	buf, scores []float64
	lags        []dsp.LagScore
	scan        dsp.ScanScratch
	hits        []ScanHit
}

func (s *refScanner) Scan(block []float64) []ScanHit {
	hits := s.hits[:0]
	if len(block) == 0 {
		return hits
	}
	need := s.nCarry + len(block)
	buf := dsp.Grow(s.buf, need)
	s.buf = buf
	copy(buf, s.carry[:s.nCarry])
	copy(buf[s.nCarry:], block)
	if need >= s.corr.Len() {
		scores := scoresIn(&s.scan, s.lags, s.scores, s.corr, buf)
		s.scores = scores
		base := s.next - int64(s.nCarry)
		for i, v := range scores {
			if math.Abs(v) >= s.threshold {
				hits = append(hits, ScanHit{Index: base + int64(i), Corr: v})
			}
		}
	}
	keep := s.corr.Len() - 1
	if need < keep {
		keep = need
	}
	copy(s.carry[:keep], buf[need-keep:])
	s.nCarry = keep
	s.next += int64(len(block))
	s.hits = hits
	return hits
}

// TestSyncScannerMatchesReplacedScanner feeds one stream to the scanner
// and to the replaced one at every block size from 1 to 5000 samples
// (under -short or -race, every 31st) and requires the same hits, index
// and correlation bits.
func TestSyncScannerMatchesReplacedScanner(t *testing.T) {
	m, err := NewFM0(16)
	if err != nil {
		t.Fatal(err)
	}
	wave := scannerWave(m, 5200, 400, 2600, 4990)
	rng := rand.New(rand.NewSource(63))
	for i := range wave {
		wave[i] += 0.3*rng.NormFloat64() + 0.1
	}
	s := NewSyncScanner(m, 0.3)
	ref := &refScanner{corr: preambleCorrelator(m), threshold: 0.3, carry: make([]float64, s.corr.Len()-1)}
	stride := 1
	if testing.Short() || raceEnabled {
		stride = 31
	}
	total := 0
	for block := 1; block <= 5000; block += stride {
		s.Reset()
		ref.nCarry, ref.next = 0, 0
		for off := 0; off < len(wave); off += block {
			chunk := wave[off:min(off+block, len(wave))]
			want := ref.Scan(chunk)
			got := s.Scan(chunk)
			if len(got) != len(want) {
				t.Fatalf("block %d at %d: %d hits, replaced scanner %d", block, off, len(got), len(want))
			}
			for i := range want {
				if got[i].Index != want[i].Index || math.Float64bits(got[i].Corr) != math.Float64bits(want[i].Corr) {
					t.Fatalf("block %d at %d: hit %d is %+v, replaced scanner %+v", block, off, i, got[i], want[i])
				}
			}
			total += len(got)
		}
	}
	if total == 0 {
		t.Fatal("no hits at all; the comparison is vacuous")
	}
}

// refCorrectCFOInto is the replaced rotation, verbatim: math.Cos and
// math.Sin of each sample's phase.
func refCorrectCFOInto(dst, bb []complex128, cfo, fs float64) []complex128 {
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

// TestCorrectCFOMatchesCosSin requires the Sincos rotation, into a
// fresh buffer and in place, to give the replaced Cos/Sin rotation's
// bits, at phases from a fraction of a turn to past the argument
// reduction's large-argument threshold (2^29 rad).
func TestCorrectCFOMatchesCosSin(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	bb := make([]complex128, 4000)
	for i := range bb {
		bb[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for _, c := range []struct{ cfo, fs float64 }{{0.7, 96000}, {-3.3, 96000}, {431.5, 8000}, {2e6, 1}, {-1.1e8, 3}} {
		want := refCorrectCFOInto(nil, bb, c.cfo, c.fs)
		got := CorrectCFOInto(nil, bb, c.cfo, c.fs)
		inPlace := append([]complex128(nil), bb...)
		inPlace = CorrectCFOInto(inPlace, inPlace, c.cfo, c.fs)
		for i := range want {
			for _, v := range []complex128{got[i], inPlace[i]} {
				if math.Float64bits(real(v)) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(v)) != math.Float64bits(imag(want[i])) {
					t.Fatalf("cfo %g Hz at %g Hz: sample %d = %v, want %v", c.cfo, c.fs, i, v, want[i])
				}
			}
		}
	}
}
