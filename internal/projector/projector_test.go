package projector

import (
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
