package phy

import (
	"math"
	"math/rand"
	"testing"
)

// nanFloats returns n NaNs with as much spare capacity again: a dirty,
// oversized buffer for the Into variants.
func nanFloats(n int) []float64 {
	buf := make([]float64, 2*n)
	for i := range buf {
		buf[i] = math.NaN()
	}
	return buf[:n]
}

// noisyFM0 encodes bits at spb with Gaussian noise, an offset and a
// scale, as a projected baseband stream looks.
func noisyFM0(rng *rand.Rand, m *FM0, bits []Bit, start float64) []float64 {
	wave, _ := m.Encode(bits, start)
	for i := range wave {
		wave[i] = 0.3*wave[i] + 1.7 + 0.25*rng.NormFloat64()
	}
	return wave
}

func TestCorrectCFOIntoMatchesCorrectCFO(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	bb := make([]complex128, 1500)
	for i := range bb {
		bb[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for _, fs := range []float64{96000, 0} {
		want := CorrectCFO(bb, 3.7, fs)
		dst := make([]complex128, 2*len(bb))
		for i := range dst {
			dst[i] = complex(math.NaN(), math.NaN())
		}
		got := CorrectCFOInto(dst[:3], bb, 3.7, fs)
		if len(got) != len(want) {
			t.Fatalf("fs %g: length %d, want %d", fs, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
				math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
				t.Fatalf("fs %g: sample %d = %v, want %v", fs, i, got[i], want[i])
			}
		}
	}
}

// TestCorrectCFOIntoAllocs pins CorrectCFOInto at zero allocations
// into a buffer of sufficient capacity and in place (dst == bb).
func TestCorrectCFOIntoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	bb := make([]complex128, 1500)
	for i := range bb {
		bb[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	dst := make([]complex128, 2*len(bb))
	if allocs := testing.AllocsPerRun(3, func() { CorrectCFOInto(dst[:3], bb, 3.7, 96000) }); allocs > 0 {
		t.Errorf("into a buffer of sufficient capacity: %.0f allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(3, func() { CorrectCFOInto(bb, bb, 3.7, 96000) }); allocs > 0 {
		t.Errorf("in place: %.0f allocations, want 0", allocs)
	}
}

func TestDecodeIntoMatchesDecodeFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m, _ := NewFM0(16)
	// A longer decode first leaves the trellis and the bit buffer
	// dirty and oversized.
	var tr Trellis
	dst, _ := m.DecodeInto(nil, &tr, noisyFM0(rng, m, randBits(rng, 300), 1), 300, 1)
	for i := range dst {
		dst[i] = 7
	}
	for _, n := range []int{2, 24, 99} {
		for _, start := range []float64{1, -1} {
			wave := noisyFM0(rng, m, randBits(rng, n), start)
			want, wantMetric := m.DecodeFrom(wave, n, start)
			got, gotMetric := m.DecodeInto(dst[:5], &tr, wave, n, start)
			if len(got) != len(want) || math.Float64bits(gotMetric) != math.Float64bits(wantMetric) {
				t.Fatalf("%d bits from %g: %d bits, metric %v; want %d, %v", n, start, len(got), gotMetric, len(want), wantMetric)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%d bits from %g: bit %d = %d, want %d", n, start, i, got[i], want[i])
				}
			}
		}
	}
	if got, metric := m.DecodeInto(dst, &tr, make([]float64, 3), 4, 1); len(got) != 0 || metric != 0 {
		t.Fatalf("short wave: %d bits, metric %v; want none", len(got), metric)
	}
}

func TestMeasureSNRIntoMatchesMeasureSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	means := nanFloats(1000)
	for _, spb := range []int{6, 16, 194} {
		m, _ := NewFM0(spb)
		for _, n := range []int{9, 60} {
			bits := randBits(rng, n)
			wave := noisyFM0(rng, m, bits, 1)
			want := MeasureSNR(wave, bits, m)
			got, buf := MeasureSNRInto(means[:2], wave, bits, m)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("spb %d, %d bits: SNR %v, want %v", spb, n, got, want)
			}
			means = buf
		}
	}
}

// TestSharedDetectorsMatchFresh interleaves the detectors of three
// bitrates on one DetectScratch, as a receiver decoding several
// bitrates does, and requires each call to return what a fresh
// detector returns.
func TestSharedDetectorsMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var scratch DetectScratch
	type run struct {
		det  *Detector
		m    *FM0
		wave []float64
	}
	var runs []run
	for _, spb := range []int{194, 98, 48} {
		m, _ := NewFM0(spb)
		det := NewSharedDetector(m, &scratch)
		for _, lead := range []int{3 * spb, 40 * spb} {
			rx := make([]float64, lead)
			for i := range rx {
				rx[i] = 0.4 * rng.NormFloat64()
			}
			rx = append(rx, noisyFM0(rng, m, append(append([]Bit{}, PreambleBits...), randBits(rng, 40)...), -1)...)
			runs = append(runs, run{det, m, rx})
		}
	}
	found := 0
	for round := 0; round < 2; round++ {
		for i, r := range runs {
			for _, maxK := range []int{1, 8} {
				want, wantErr := NewDetector(r.m).Candidates(r.wave, 0.3, maxK, 0)
				got, gotErr := r.det.Candidates(r.wave, 0.3, maxK, 0)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("run %d, maxK %d: error %v, fresh detector %v", i, maxK, gotErr, wantErr)
				}
				if len(got) != len(want) {
					t.Fatalf("run %d, maxK %d: %d candidates, fresh detector %d", i, maxK, len(got), len(want))
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("run %d, maxK %d: candidate %d = %+v, fresh detector %+v", i, maxK, k, got[k], want[k])
					}
				}
				found += len(got)
			}
		}
	}
	if found == 0 {
		t.Fatal("no run found a candidate; the comparison is vacuous")
	}
}

func TestFinalLevelMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, bits := range [][]Bit{PreambleBits, randBits(rng, 31), nil} {
		for _, start := range []float64{1, -1} {
			_, want := halfBits.Encode(bits, start)
			if got := finalLevel(bits, start); got != want {
				t.Fatalf("final level of %v from %g = %g, Encode says %g", bits, start, got, want)
			}
		}
	}
}
