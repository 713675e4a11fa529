package projector

import (
	"math"
	"testing"

	"pab/internal/dsp"
	"pab/internal/frame"
	"pab/internal/phy"
	"pab/internal/piezo"
)

func testProjector(t *testing.T) *Projector {
	t.Helper()
	tr, err := piezo.New(piezo.PaperCylinder())
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(tr, 350, 96000)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	tr, _ := piezo.New(piezo.PaperCylinder())
	if _, err := New(nil, 100, 96000); err == nil {
		t.Error("nil transducer should error")
	}
	if _, err := New(tr, 0, 96000); err == nil {
		t.Error("zero drive should error")
	}
	if _, err := New(tr, 100, 0); err == nil {
		t.Error("zero sample rate should error")
	}
}

func TestCWProperties(t *testing.T) {
	p := testProjector(t)
	w := p.CW(100, 15000, 0.1)
	if len(w) != 9600 {
		t.Fatalf("length %d, want 9600", len(w))
	}
	peaks := dsp.FindPeaks(w, 96000, 1, 500, 0)
	if len(peaks) != 1 || math.Abs(peaks[0].Frequency-15000) > 20 {
		t.Errorf("CW spectrum wrong: %+v", peaks)
	}
	// Amplitude = transmit response × drive at resonance (15 kHz ≈ f0).
	wantAmp := p.Transducer.TransmitPressure(100, 15000)
	if got := dsp.RMS(w) * math.Sqrt2; math.Abs(got-wantAmp) > 0.01*wantAmp {
		t.Errorf("amplitude %g, want %g", got, wantAmp)
	}
}

func TestDriveClamping(t *testing.T) {
	p := testProjector(t)
	over := p.PressureAmplitude(9999, 15000)
	max := p.PressureAmplitude(350, 15000)
	if over != max {
		t.Errorf("drive should clamp at amplifier limit: %g vs %g", over, max)
	}
	if p.PressureAmplitude(-5, 15000) != 0 {
		t.Error("negative drive should clamp to 0")
	}
}

func TestHigherVoltageMorePressure(t *testing.T) {
	p := testProjector(t)
	prev := 0.0
	for _, v := range []float64{25, 50, 100, 200, 350} {
		amp := p.PressureAmplitude(v, 15000)
		if amp <= prev {
			t.Errorf("pressure should grow with drive: %g at %g V", amp, v)
		}
		prev = amp
	}
}

func TestQueryWaveform(t *testing.T) {
	p := testProjector(t)
	q := frame.Query{Dest: 0x05, Command: frame.CmdPing}
	w, _, err := p.Query(q, 100, 15000, 48, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// The tail should be continuous carrier (high RMS); the PWM section
	// has gaps so its average power is lower.
	tail := w[len(w)-4000:]
	head := w[:len(w)-4800]
	if dsp.RMS(tail) <= dsp.RMS(head) {
		t.Error("tail should be continuous carrier with higher RMS than keyed section")
	}
	// The envelope decodes back to the query at the node.
	env, err := dsp.AmplitudeEnvelope(w, 96000, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	pwm, _ := phy.NewPWM(48)
	levels := phy.SchmittTrigger(env, 0.6, 0.3)
	bits := pwm.Decode(levels)
	// Find the preamble and check the query follows.
	found := false
	for i := 0; i+len(phy.PreambleBits)+frame.QueryBitLength <= len(bits); i++ {
		match := true
		for j, pb := range phy.PreambleBits {
			if bits[i+j] != pb {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		raw, err := frame.FromBits(bits[i+len(phy.PreambleBits) : i+len(phy.PreambleBits)+frame.QueryBitLength])
		if err != nil {
			continue
		}
		if got, err := frame.UnmarshalQuery(raw); err == nil && got == q {
			found = true
			break
		}
	}
	if !found {
		t.Error("query not recoverable from projector waveform envelope")
	}
}

func TestMultiTone(t *testing.T) {
	p := testProjector(t)
	w, err := p.MultiTone([]Tone{{15000, 100}, {18000, 100}}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	peaks := dsp.FindPeaks(w, 96000, 2, 1000, 0)
	if len(peaks) != 2 {
		t.Fatalf("want 2 tones, got %d", len(peaks))
	}
	freqs := []float64{peaks[0].Frequency, peaks[1].Frequency}
	if math.Min(freqs[0], freqs[1]) > 15100 || math.Max(freqs[0], freqs[1]) < 17900 {
		t.Errorf("tones at %v", freqs)
	}
	if _, err := p.MultiTone(nil, 0.1); err == nil {
		t.Error("empty tone list should error")
	}
}

func TestQueryDuration(t *testing.T) {
	p := testProjector(t)
	d := p.QueryDuration(48)
	// 49 bits × ≤3 units × 48 samples at 96 kHz ⇒ ≤ 73.5 ms.
	if d <= 0 || d > 0.08 {
		t.Errorf("query duration %g s", d)
	}
}
