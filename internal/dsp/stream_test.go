package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// testSignal is a deterministic broadband test vector: a few tones plus
// seeded noise, enough to exercise every biquad state path.
func testSignal(n int) []float64 {
	rng := rand.New(rand.NewSource(42))
	x := make([]float64, n)
	for i := range x {
		t := float64(i)
		x[i] = math.Sin(2*math.Pi*0.01*t) + 0.5*math.Sin(2*math.Pi*0.13*t+0.7) + 0.2*rng.NormFloat64()
	}
	return x
}

func TestIIRStreamMatchesBatchFilter(t *testing.T) {
	lp, err := DesignButterworthLowpass(1500, 48000, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := testSignal(10000)
	want := lp.Filter(x)
	for _, block := range []int{1, 3, 7, 64, 256, 999, len(x)} {
		st := lp.Stream()
		got := make([]float64, 0, len(x))
		buf := make([]float64, block)
		for off := 0; off < len(x); off += block {
			end := off + block
			if end > len(x) {
				end = len(x)
			}
			got = append(got, st.Process(buf, x[off:end])...)
		}
		if len(got) != len(want) {
			t.Fatalf("block %d: %d samples, want %d", block, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("block %d: sample %d: got %v want %v (stream must be bit-identical to batch)",
					block, i, got[i], want[i])
			}
		}
	}
}

func TestIIRStreamInPlace(t *testing.T) {
	lp, err := DesignButterworthLowpass(1000, 8000, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := testSignal(512)
	want := lp.Filter(x)
	st := lp.Stream()
	inPlace := append([]float64(nil), x...)
	got := st.Process(inPlace, inPlace)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("in-place sample %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestDownmixerMatchesDownconvert(t *testing.T) {
	const fs, fc = 96000.0, 15000.0
	x := testSignal(20000)
	want := Downconvert(x, fc, fs)
	for _, block := range []int{1, 17, 256, 4096, len(x)} {
		m := NewDownmixer(fc, fs)
		got := make([]complex128, 0, len(x))
		buf := make([]complex128, block)
		for off := 0; off < len(x); off += block {
			end := off + block
			if end > len(x) {
				end = len(x)
			}
			got = append(got, m.MixInto(buf, x[off:end])...)
		}
		for i := range got {
			// Both mixers take each sample's carrier from one phasor by
			// the sample's index, so they agree exactly.
			if got[i] != want[i] {
				t.Fatalf("block %d: sample %d: got %v want %v", block, i, got[i], want[i])
			}
		}
	}
}

func cmplxAbs(c complex128) float64 { return math.Hypot(real(c), imag(c)) }
