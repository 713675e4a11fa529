package phy

import "pab/internal/dsp"

// ScanHit is one preamble correlation peak found by a SyncScanner.
type ScanHit struct {
	// Index is the global sample index — counted from the first sample
	// ever fed to the scanner — of the first preamble sample of the
	// alignment.
	Index int64
	// Corr is the signed normalised correlation at the alignment
	// (|Corr| ≥ the scanner threshold; the sign carries the FM0
	// polarity, as in Detector.Candidates).
	Corr float64
}

// SyncScanner is the incremental face of Detector.Candidates: it
// watches a real-valued projection stream for FM0 preamble correlation
// peaks block by block, carrying len(template)−1 samples of history so
// an alignment torn across a block boundary is still evaluated whole.
// Every alignment in the stream is scored exactly once: alignments
// whose window closes inside a call are scored there, and ones
// spanning the boundary are scored on the next call via the carry —
// the carry is one sample too short for any alignment to close in it
// twice.
//
// The scanner is a latency device for streaming receivers — hits tell
// the caller where to aim a full decode attempt early. It holds no
// decode state and suppresses nothing, so a caller that also runs a
// full-window attempt before discarding samples loses no frames if a
// hit is missed on a noisy projection.
//
// Reset rewinds a scanner to sample 0 of a new stream and keeps its
// buffers, so a streaming receiver can recycle scanners instead of
// rebuilding their correlation scratch per stream.
type SyncScanner struct {
	corr      *dsp.StepCorrelator
	scan      dsp.ScanScratch // the correlator's sliding window, kept across Scans
	spb       int
	threshold float64
	carry     []float64
	nCarry    int
	next      int64 // global index of the next sample to be fed
	buf       []float64
	above     []dsp.LagScore
	hits      []ScanHit
}

// NewSyncScanner returns a scanner matching m's encoding of the
// standard preamble at the given |correlation| threshold.
func NewSyncScanner(m *FM0, threshold float64) *SyncScanner {
	corr := preambleCorrelator(m)
	return &SyncScanner{
		corr:      corr,
		spb:       m.SamplesPerBit,
		threshold: threshold,
		carry:     make([]float64, corr.Len()-1),
		hits:      make([]ScanHit, 0, 8),
	}
}

// SamplesPerBit returns the samples per bit of the FM0 encoding the
// scanner matches.
func (s *SyncScanner) SamplesPerBit() int { return s.spb }

// Threshold returns the scanner's |correlation| threshold.
func (s *SyncScanner) Threshold() float64 { return s.threshold }

// Reset returns the scanner to its just-built state: the next Scan
// starts a new stream at global index 0 with no carried history, and
// reports what a fresh scanner would. The carry, sample buffer, hit
// buffers and the correlator's scan window keep their storage.
func (s *SyncScanner) Reset() {
	s.nCarry = 0
	s.next = 0
	s.hits = s.hits[:0]
}

// Scan feeds the next block and returns the hits whose alignment
// window closed with it, in ascending index order. The returned slice
// is reused by the next Scan call; copy anything kept longer.
func (s *SyncScanner) Scan(block []float64) []ScanHit {
	s.hits = s.hits[:0]
	if len(block) == 0 {
		return s.hits
	}
	need := s.nCarry + len(block)
	if cap(s.buf) < need {
		s.buf = make([]float64, need)
	}
	buf := s.buf[:need]
	copy(buf, s.carry[:s.nCarry])
	copy(buf[s.nCarry:], block)
	if need >= s.corr.Len() {
		s.above = s.corr.Scan(&s.scan, s.above[:0], buf, s.threshold, nil)
		base := s.next - int64(s.nCarry)
		hits := s.hits
		for _, l := range s.above {
			hits = append(hits, ScanHit{Index: base + int64(l.Lag), Corr: l.Score})
		}
		s.hits = hits
	}
	keep := s.corr.Len() - 1
	if need < keep {
		keep = need
	}
	copy(s.carry[:keep], buf[need-keep:])
	s.nCarry = keep
	s.next += int64(len(block))
	return s.hits
}
