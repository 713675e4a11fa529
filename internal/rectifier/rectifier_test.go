package rectifier

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOpenCircuitVoltage(t *testing.T) {
	r := Rectifier{Stages: 3, DiodeDrop: 0.25, StageResistance: 900, InputResistance: 2000}
	// 3 stages × 2×(1.0 − 0.25) = 4.5 V.
	if v := r.OpenCircuitVoltage(1.0); math.Abs(v-4.5) > 1e-12 {
		t.Errorf("Voc(1.0) = %g, want 4.5", v)
	}
	// Below the diode drop nothing rectifies.
	if v := r.OpenCircuitVoltage(0.2); v != 0 {
		t.Errorf("Voc(0.2) = %g, want 0", v)
	}
	if v := r.OpenCircuitVoltage(0); v != 0 {
		t.Errorf("Voc(0) = %g, want 0", v)
	}
}

func TestMoreStagesMoreVoltage(t *testing.T) {
	f := func(stagesRaw uint8) bool {
		n := 1 + int(stagesRaw%6)
		a := Rectifier{Stages: n, DiodeDrop: 0.25, StageResistance: 900, InputResistance: 2000}
		b := Rectifier{Stages: n + 1, DiodeDrop: 0.25, StageResistance: 900, InputResistance: 2000}
		return b.OpenCircuitVoltage(1.0) > a.OpenCircuitVoltage(1.0) &&
			b.OutputResistance() > a.OutputResistance()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInputPeakFromPower(t *testing.T) {
	r := Rectifier{Stages: 2, DiodeDrop: 0.25, StageResistance: 1500, InputResistance: 2000, Efficiency: 0.7}
	// P = V²/(2R): 1 mW into 2 kΩ ⇒ V = √(2·0.001·2000) = 2 V.
	if v := r.InputPeakFromPower(1e-3); math.Abs(v-2) > 1e-12 {
		t.Errorf("Vin(1mW) = %g, want 2", v)
	}
	if r.InputPeakFromPower(0) != 0 || r.InputPeakFromPower(-1) != 0 {
		t.Error("non-positive power should give zero input")
	}
}

func TestValidate(t *testing.T) {
	good := Paper()
	if err := good.Validate(); err != nil {
		t.Errorf("paper config should validate: %v", err)
	}
	bad := []Rectifier{
		{Stages: 0, InputResistance: 1},
		{Stages: 1, DiodeDrop: -1, InputResistance: 1},
		{Stages: 1, StageResistance: -1, InputResistance: 1},
		{Stages: 1, InputResistance: 0},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestSupercapCharging(t *testing.T) {
	s, err := NewSupercap(1000e-6, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Charge toward 4 V through 2.7 kΩ: τ = 2.7 s. After one τ ≈ 63%.
	voc, rout := 4.0, 2700.0
	dt := 1e-3
	for i := 0; i < int(2.7/dt); i++ {
		s.Step(voc, rout, 0, dt)
	}
	want := voc * (1 - math.Exp(-1))
	if math.Abs(s.Voltage()-want) > 0.05 {
		t.Errorf("after one τ: %g V, want ~%g", s.Voltage(), want)
	}
	// Converges to voc, never beyond.
	for i := 0; i < int(30/dt); i++ {
		s.Step(voc, rout, 0, dt)
	}
	if math.Abs(s.Voltage()-voc) > 0.01 || s.Voltage() > voc {
		t.Errorf("steady state %g, want %g", s.Voltage(), voc)
	}
}

func TestSupercapDiodeBlocksReverse(t *testing.T) {
	s, _ := NewSupercap(1000e-6, 0)
	s.SetVoltage(3)
	s.Step(1, 2700, 0, 1.0) // source below cap voltage
	if s.Voltage() != 3 {
		t.Errorf("reverse flow occurred: %g", s.Voltage())
	}
}

func TestSupercapLoadDischarges(t *testing.T) {
	s, _ := NewSupercap(1000e-6, 0)
	s.SetVoltage(3)
	// 1 mA from 1000 µF: dV/dt = 1 V/s.
	s.Step(0, 2700, 1e-3, 0.5)
	if math.Abs(s.Voltage()-2.5) > 1e-9 {
		t.Errorf("after discharge: %g, want 2.5", s.Voltage())
	}
	// Cannot go negative.
	s.Step(0, 2700, 1, 10)
	if s.Voltage() != 0 {
		t.Errorf("voltage should floor at 0, got %g", s.Voltage())
	}
}

func TestSupercapLeak(t *testing.T) {
	s, _ := NewSupercap(1000e-6, 1e4) // aggressive leak: τ = 10 s
	s.SetVoltage(3)
	for i := 0; i < 10000; i++ {
		s.Step(0, 0, 0, 1e-3)
	}
	want := 3 * math.Exp(-1)
	if math.Abs(s.Voltage()-want) > 0.05 {
		t.Errorf("after one leak τ: %g, want ~%g", s.Voltage(), want)
	}
}

func TestSupercapSteadyState(t *testing.T) {
	s, _ := NewSupercap(1000e-6, 0)
	// Simulation settles at the analytic steady state of a leak-free
	// capacitor: the source current (voc − v)/rout balances the load.
	voc, rout, iLoad := 4.0, 2700.0, 300e-6
	want := voc - iLoad*rout
	for i := 0; i < 60000; i++ {
		s.Step(voc, rout, iLoad, 1e-3)
	}
	if math.Abs(s.Voltage()-want) > 0.02 {
		t.Errorf("steady state sim %g vs analytic %g", s.Voltage(), want)
	}
}

func TestSupercapValidation(t *testing.T) {
	if _, err := NewSupercap(0, 0); err == nil {
		t.Error("zero capacitance should error")
	}
	if _, err := NewSupercap(1e-3, -1); err == nil {
		t.Error("negative leak should error")
	}
	s, _ := NewSupercap(1e-3, 0)
	s.SetVoltage(-5)
	if s.Voltage() != 0 {
		t.Error("SetVoltage should clamp at 0")
	}
}

func TestLDOThresholds(t *testing.T) {
	l := PaperLDO()
	if !l.CanPowerOn(2.5) || l.CanPowerOn(2.49) {
		t.Error("power-on threshold should be 2.5 V")
	}
	if !l.MustPowerOff(1.99) || l.MustPowerOff(2.0) {
		t.Error("brown-out threshold should be 2.0 V")
	}
	// Hysteresis: a node at 2.2 V stays on if running but cannot start.
	if l.CanPowerOn(2.2) || l.MustPowerOff(2.2) {
		t.Error("2.2 V should be inside the hysteresis band")
	}
}

func TestPaperChainEndToEnd(t *testing.T) {
	// A delivered power of ~0.35 mW should rectify above the 2.5 V
	// power-up threshold with the paper chain — the operating point
	// behind Fig 3's ≈4 V peak.
	r := Paper()
	vin := r.InputPeakFromPower(0.35e-3) // ≈1.18 V
	voc := r.OpenCircuitVoltage(vin)
	if voc < 2.5 {
		t.Errorf("Voc = %g, want > 2.5 V at 0.35 mW", voc)
	}
	s := PaperSupercap()
	ldo := PaperLDO()
	for i := 0; i < 200000; i++ {
		s.Step(voc, r.OutputResistance(), ldo.QuiescentA, 1e-3)
	}
	if !ldo.CanPowerOn(s.Voltage()) {
		t.Errorf("capacitor reached %g V, node cannot power on", s.Voltage())
	}
}

func TestStepPowerLimited(t *testing.T) {
	s, _ := NewSupercap(1000e-6, 0)
	// A generous Thevenin source but a tiny power budget: the charge
	// current must clamp to maxCharge.
	voc, rout := 10.0, 100.0
	maxCharge := 1e-4 // 100 µA
	s.StepPowerLimited(voc, rout, 0, maxCharge, 1.0)
	// Unclamped, ΔV would be huge; clamped: ΔV = I·t/C = 0.1 V.
	if math.Abs(s.Voltage()-0.1) > 1e-9 {
		t.Errorf("clamped charge gave %g V, want 0.1", s.Voltage())
	}
	// Zero dt is a no-op.
	v := s.Voltage()
	s.StepPowerLimited(voc, rout, 0, maxCharge, 0)
	if s.Voltage() != v {
		t.Error("zero dt should not change voltage")
	}
	// Ideal source (rout = 0) charges at the power limit, not instantly.
	s2, _ := NewSupercap(1000e-6, 0)
	s2.StepPowerLimited(5, 0, 0, 1e-3, 1.0)
	if math.Abs(s2.Voltage()-1.0) > 1e-9 {
		t.Errorf("ideal source with power limit gave %g V, want 1.0", s2.Voltage())
	}
	// Overshoot clamps at voc.
	s3, _ := NewSupercap(1e-6, 0)
	s3.StepPowerLimited(2, 1, 0, 100, 10)
	if s3.Voltage() > 2 {
		t.Errorf("overshoot beyond voc: %g", s3.Voltage())
	}
	// Discharge floors at zero.
	s4, _ := NewSupercap(1e-6, 0)
	s4.SetVoltage(1)
	s4.StepPowerLimited(0, 1, 10, 0, 10)
	if s4.Voltage() != 0 {
		t.Errorf("voltage should floor at 0, got %g", s4.Voltage())
	}
	// Leak path.
	s5, _ := NewSupercap(1000e-6, 1e4)
	s5.SetVoltage(3)
	s5.StepPowerLimited(0, 0, 0, 0, 10.0)
	if s5.Voltage() >= 3 {
		t.Error("leak should discharge under StepPowerLimited too")
	}
}

func TestValidateEfficiency(t *testing.T) {
	bad := Paper()
	bad.Efficiency = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero efficiency should fail validation")
	}
	bad.Efficiency = 1.2
	if err := bad.Validate(); err == nil {
		t.Error("efficiency > 1 should fail validation")
	}
}
