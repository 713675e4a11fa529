package phy

import (
	"math"
	"math/rand"
	"testing"
)

// scannerWave embeds the preamble template at the given offsets in a
// lightly-noisy floor (noise keeps the correlator's variance
// normalisation away from 0/0 without creating spurious peaks).
func scannerWave(m *FM0, n int, offsets ...int) []float64 {
	rng := rand.New(rand.NewSource(7))
	wave := make([]float64, n)
	for i := range wave {
		wave[i] = 0.01 * rng.NormFloat64()
	}
	tmpl := m.EncodeTemplate(PreambleBits)
	for _, off := range offsets {
		for i, v := range tmpl {
			wave[off+i] += v
		}
	}
	return wave
}

func scanAll(s *SyncScanner, wave []float64, block int) []int64 {
	var idx []int64
	for off := 0; off < len(wave); off += block {
		end := off + block
		if end > len(wave) {
			end = len(wave)
		}
		for _, h := range s.Scan(wave[off:end]) {
			idx = append(idx, h.Index)
		}
	}
	return idx
}

func TestSyncScannerFindsTornPreamble(t *testing.T) {
	m, err := NewFM0(16)
	if err != nil {
		t.Fatal(err)
	}
	const offset = 1000
	wave := scannerWave(m, 4000, offset)
	// Block sizes chosen so the preamble (9×16 = 144 samples) lands
	// whole, torn once, and torn many times across block boundaries.
	for _, block := range []int{1, 7, 64, 100, 144, 1000, len(wave)} {
		s := NewSyncScanner(m, 0.8)
		idx := scanAll(s, wave, block)
		found := false
		for _, i := range idx {
			if i == offset {
				found = true
			}
		}
		if !found {
			t.Fatalf("block %d: preamble at %d not found (hits %v)", block, offset, idx)
		}
	}
}

func TestSyncScannerChunkingInvariant(t *testing.T) {
	m, err := NewFM0(16)
	if err != nil {
		t.Fatal(err)
	}
	wave := scannerWave(m, 6000, 500, 3000, 5500)
	whole := NewSyncScanner(m, 0.8)
	want := scanAll(whole, wave, len(wave))
	for _, block := range []int{1, 13, 144, 333, 2048} {
		s := NewSyncScanner(m, 0.8)
		got := scanAll(s, wave, block)
		if len(got) != len(want) {
			t.Fatalf("block %d: %d hits, whole-buffer scan saw %d (%v vs %v)", block, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("block %d: hit %d at %d, whole-buffer scan at %d", block, i, got[i], want[i])
			}
		}
	}
}

func TestSyncScannerAgreesWithBatchDetector(t *testing.T) {
	m, err := NewFM0(16)
	if err != nil {
		t.Fatal(err)
	}
	const offset = 777
	wave := scannerWave(m, 3000, offset)
	sync, err := DetectPacket(wave, m, 0.8)
	if err != nil {
		t.Fatalf("batch detector: %v", err)
	}
	s := NewSyncScanner(m, 0.8)
	idx := scanAll(s, wave, 64)
	found := false
	for _, i := range idx {
		if int(i) == sync.Index {
			found = true
		}
	}
	if !found {
		t.Fatalf("scanner hits %v do not include the batch lock %d", idx, sync.Index)
	}
}

func TestSyncScannerShortAndEmptyBlocks(t *testing.T) {
	m, err := NewFM0(16)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSyncScanner(m, 0.8)
	if hits := s.Scan(nil); len(hits) != 0 {
		t.Fatalf("empty block produced hits: %v", hits)
	}
	// Feed fewer samples than one template in total; nothing to score.
	for i := 0; i < 5; i++ {
		if hits := s.Scan(make([]float64, 10)); len(hits) != 0 {
			t.Fatalf("sub-template stream produced hits: %v", hits)
		}
	}
	if s.Offset() != 50 {
		t.Fatalf("offset = %d, want 50", s.Offset())
	}
}

// TestSyncScannerResetMatchesFresh scans one stream, resets the
// scanner, and requires its hits on a second stream — indices and the
// bits of every correlation — to be a fresh scanner's, under each
// chunking. The first stream ends mid-block, so the reset must also
// discard a partial carry.
func TestSyncScannerResetMatchesFresh(t *testing.T) {
	m, err := NewFM0(16)
	if err != nil {
		t.Fatal(err)
	}
	a := scannerWave(m, 5003, 300, 2500)
	b := scannerWave(m, 4321, 700, 3000)
	rng := rand.New(rand.NewSource(11))
	for i := range b {
		b[i] += 0.2 * rng.NormFloat64()
	}
	scan := func(s *SyncScanner, wave []float64, block int) []ScanHit {
		var hits []ScanHit
		for off := 0; off < len(wave); off += block {
			hits = append(hits, s.Scan(wave[off:min(off+block, len(wave))])...)
		}
		return hits
	}
	for _, block := range []int{1, 13, 144, 1024, len(b)} {
		want := scan(NewSyncScanner(m, 0.3), b, block)
		if len(want) == 0 {
			t.Fatalf("block %d: no hits on the second stream", block)
		}
		s := NewSyncScanner(m, 0.3)
		scan(s, a, 97)
		s.Reset()
		if s.Offset() != 0 {
			t.Fatalf("block %d: offset %d after Reset, want 0", block, s.Offset())
		}
		got := scan(s, b, block)
		if len(got) != len(want) {
			t.Fatalf("block %d: %d hits after Reset, a fresh scanner finds %d", block, len(got), len(want))
		}
		for i := range got {
			if got[i].Index != want[i].Index || math.Float64bits(got[i].Corr) != math.Float64bits(want[i].Corr) {
				t.Fatalf("block %d: hit %d is %+v after Reset, fresh %+v", block, i, got[i], want[i])
			}
		}
	}
}
