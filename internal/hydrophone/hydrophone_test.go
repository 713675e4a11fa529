package hydrophone

import (
	"math"
	"testing"

	"pab/internal/dsp"
)

func TestVoltsPerPascal(t *testing.T) {
	h := H2a()
	// −180 dB re 1 V/µPa ⇒ 1 Pa (=1e6 µPa) → 1 mV.
	if g := h.VoltsPerPascal(); math.Abs(g-1e-3) > 1e-9 {
		t.Errorf("gain %g, want 1e-3", g)
	}
}

func TestRecordScalesAndPreservesShape(t *testing.T) {
	h := H2a()
	p := dsp.Sine(100, 15000, 96000, 0, 9600) // 100 Pa tone
	v, err := h.Record(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := dsp.RMS(v) * math.Sqrt2; math.Abs(got-0.1) > 0.001 {
		t.Errorf("recorded amplitude %g V, want 0.1", got)
	}
	peaks := dsp.FindPeaks(v, 96000, 1, 500, 0)
	if len(peaks) != 1 || math.Abs(peaks[0].Frequency-15000) > 20 {
		t.Errorf("recording distorted: %+v", peaks)
	}
}

func TestRecordClips(t *testing.T) {
	h := H2a()
	// 2000 Pa → 2 V, above the 1 V clip.
	p := dsp.Sine(2000, 15000, 96000, 0, 960)
	v, err := h.Record(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range v {
		if s > h.MaxInputV+1e-9 || s < -h.MaxInputV-1e-9 {
			t.Fatalf("sample %d = %g outside clip range", i, s)
		}
	}
	// Clipped sine has flat tops: many samples exactly at the rail.
	atRail := 0
	for _, s := range v {
		if math.Abs(math.Abs(s)-h.MaxInputV) < 1e-9 {
			atRail++
		}
	}
	if atRail == 0 {
		t.Error("over-driven input should clip at the rails")
	}
}

func TestRecordQuantises(t *testing.T) {
	h := H2a()
	h.Bits = 8                    // coarse for visibility
	p := []float64{0.1, 0.2, 0.3} // Pa → 0.1–0.3 mV
	v, err := h.Record(p)
	if err != nil {
		t.Fatal(err)
	}
	lsb := 2 * h.MaxInputV / 256
	for i, s := range v {
		steps := s / lsb
		if math.Abs(steps-math.Round(steps)) > 1e-9 {
			t.Errorf("sample %d = %g not on the quantisation grid", i, s)
		}
	}
}

func TestNoiseFloor(t *testing.T) {
	h := H2a()
	nf := h.NoiseFloorV()
	lsb := 2.0 / 65536
	if math.Abs(nf-lsb/math.Sqrt(12)) > 1e-12 {
		t.Errorf("noise floor %g", nf)
	}
	// More bits, lower floor.
	h24 := h
	h24.Bits = 24
	if h24.NoiseFloorV() >= nf {
		t.Error("24-bit floor should be below 16-bit")
	}
}

func TestValidation(t *testing.T) {
	bad := H2a()
	bad.MaxInputV = 0
	if _, err := bad.Record([]float64{1}); err == nil {
		t.Error("zero clip level should error")
	}
	bad = H2a()
	bad.Bits = 1
	if _, err := bad.Record([]float64{1}); err == nil {
		t.Error("1-bit ADC should error")
	}
}

func TestAutoGainPreventsClipping(t *testing.T) {
	h := H2a()
	h.AutoGain = true
	// 5 kPa → 5 V raw, far beyond the 1 V rail.
	p := dsp.Sine(5000, 15000, 96000, 0, 960)
	v, err := h.Record(p)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0.0
	for _, s := range v {
		if math.Abs(s) > peak {
			peak = math.Abs(s)
		}
	}
	if math.Abs(peak-0.8) > 0.01 {
		t.Errorf("auto-gained peak %g, want 0.8 (80%% FS)", peak)
	}
	// Quiet signals are left untouched.
	q := dsp.Sine(10, 15000, 96000, 0, 960) // 10 mV raw
	v2, err := h.Record(q)
	if err != nil {
		t.Fatal(err)
	}
	peak2 := 0.0
	for _, s := range v2 {
		if math.Abs(s) > peak2 {
			peak2 = math.Abs(s)
		}
	}
	if math.Abs(peak2-0.01) > 0.001 {
		t.Errorf("quiet signal was rescaled: peak %g, want 0.01", peak2)
	}
}

func TestRecordIntoMatchesRecord(t *testing.T) {
	for _, autoGain := range []bool{false, true} {
		h := H2a()
		h.AutoGain = autoGain
		p := dsp.Sine(3000, 15000, 96000, 0.4, 2000) // clips without auto-gain
		for i := range p {
			p[i] += float64(i%7) * 0.01
		}
		want, err := h.Record(p)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, 2*len(p))
		for i := range dst {
			dst[i] = math.NaN()
		}
		got, err := h.RecordInto(dst[:10], p)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("length %d, want %d", len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("auto-gain %v: sample %d = %v, want %v", autoGain, i, got[i], want[i])
			}
		}
	}
}
