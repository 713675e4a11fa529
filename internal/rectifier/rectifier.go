// Package rectifier models the PAB node's energy-harvesting chain: a
// multi-stage voltage-multiplying rectifier (paper §4.2.1: "a multi-stage
// rectifier in order to passively amplify the voltage"), the 1000 µF
// supercapacitor it charges, and the low-dropout regulator that gates the
// digital section (LP5900, 1.8 V out).
package rectifier

import (
	"fmt"
	"math"
)

// Rectifier is an N-stage Dickson/Villard voltage multiplier built from
// diodes and pump capacitors.
type Rectifier struct {
	// Stages is the number of doubler stages.
	Stages int
	// DiodeDrop is the forward voltage of each diode (V). Schottky
	// diodes used in harvesting front-ends drop ≈0.2–0.3 V.
	DiodeDrop float64
	// StageResistance models the per-stage output impedance (Ω) from
	// pump-capacitor charge sharing; it sets droop under load.
	StageResistance float64
	// InputResistance is the AC input resistance (Ω) the matching
	// network is designed against.
	InputResistance float64
	// Efficiency is the AC→DC conversion efficiency (0–1); it bounds
	// the output power to Efficiency × delivered input power.
	Efficiency float64
}

// Paper returns the rectifier configuration of the paper's PCB: a 3-stage
// multiplier with Schottky diodes. Micro-power multiplier chains present
// tens of kilohms to the matching network; matching the low-impedance
// piezo source to this high input resistance is what gives the
// recto-piezo its frequency selectivity (the loaded Q of the L-section
// scales with √(Rin/Rsource), §3.3.1).
func Paper() Rectifier {
	return Rectifier{
		Stages:          2,
		DiodeDrop:       0.25,
		StageResistance: 1500,
		InputResistance: 15000,
		Efficiency:      0.7,
	}
}

// Validate checks the configuration.
func (r Rectifier) Validate() error {
	if r.Stages < 1 {
		return fmt.Errorf("rectifier: need at least one stage, got %d", r.Stages)
	}
	if r.DiodeDrop < 0 {
		return fmt.Errorf("rectifier: negative diode drop %g", r.DiodeDrop)
	}
	if r.StageResistance < 0 {
		return fmt.Errorf("rectifier: negative stage resistance")
	}
	if r.InputResistance <= 0 {
		return fmt.Errorf("rectifier: input resistance must be positive")
	}
	if r.Efficiency <= 0 || r.Efficiency > 1 {
		return fmt.Errorf("rectifier: efficiency must be in (0, 1], got %g", r.Efficiency)
	}
	return nil
}

// OpenCircuitVoltage returns the unloaded DC output for a sinusoidal
// input of peak amplitude vinPeakV: each stage contributes 2·(Vpeak − Vd),
// and inputs below the diode drop produce nothing.
func (r Rectifier) OpenCircuitVoltage(vinPeakV float64) float64 {
	per := 2 * (vinPeakV - r.DiodeDrop)
	if per <= 0 {
		return 0
	}
	return float64(r.Stages) * per
}

// OutputResistance returns the Thevenin output resistance of the
// multiplier chain.
func (r Rectifier) OutputResistance() float64 {
	return float64(r.Stages) * r.StageResistance
}

// InputPeakFromPower converts an average power P (W) delivered into the
// rectifier's input resistance into the corresponding sinusoidal peak
// voltage: P = V²/(2R) ⇒ V = √(2PR).
func (r Rectifier) InputPeakFromPower(p float64) float64 {
	if p <= 0 || r.InputResistance <= 0 {
		return 0
	}
	return math.Sqrt(2 * p * r.InputResistance)
}

// Supercap is the node's storage capacitor.
type Supercap struct {
	// Capacitance in farads (paper: 1000 µF).
	Capacitance float64
	// LeakResistance models self-discharge (Ω); zero means no leak.
	LeakResistance float64

	voltage float64
}

// NewSupercap returns a discharged supercapacitor.
func NewSupercap(capacitance, leakResistance float64) (*Supercap, error) {
	if capacitance <= 0 {
		return nil, fmt.Errorf("rectifier: capacitance must be positive, got %g", capacitance)
	}
	if leakResistance < 0 {
		return nil, fmt.Errorf("rectifier: negative leak resistance")
	}
	return &Supercap{Capacitance: capacitance, LeakResistance: leakResistance}, nil
}

// PaperSupercap returns the 1000 µF storage capacitor from the paper's
// PCB with a conservative 1 MΩ leak.
func PaperSupercap() *Supercap {
	s, err := NewSupercap(1000e-6, 1e6)
	if err != nil {
		panic(err) // constants are valid
	}
	return s
}

// Voltage returns the current capacitor voltage.
func (s *Supercap) Voltage() float64 { return s.voltage }

// SetVoltage forces the capacitor voltage (test hook / precharged start).
func (s *Supercap) SetVoltage(v float64) {
	if v < 0 {
		v = 0
	}
	s.voltage = v
}

// Step advances the capacitor by dtS seconds while charged from a Thevenin
// source (vocV, routOhm) and discharged by a constant load current iLoadA.
// The rectifier's diodes block reverse flow, so the source never drains
// the capacitor. It returns the new voltage.
func (s *Supercap) Step(vocV, routOhm, iLoadA, dtS float64) float64 {
	if dtS <= 0 || s.Capacitance <= 0 {
		return s.voltage
	}
	iCharge := 0.0
	if routOhm > 0 && vocV > s.voltage {
		iCharge = (vocV - s.voltage) / routOhm
	} else if routOhm <= 0 && vocV > s.voltage {
		// Ideal source snaps the capacitor to vocV.
		s.voltage = vocV
	}
	iLeak := 0.0
	if s.LeakResistance > 0 {
		iLeak = s.voltage / s.LeakResistance
	}
	dv := (iCharge - iLoadA - iLeak) / s.Capacitance * dtS
	s.voltage += dv
	if s.voltage < 0 {
		s.voltage = 0
	}
	if iCharge > 0 && s.voltage > vocV {
		// A large dtS can overshoot the source's open-circuit voltage;
		// the source cannot charge beyond it.
		s.voltage = vocV
	}
	return s.voltage
}

// StepPowerLimited advances the capacitor like Step but additionally
// clamps the charging current to maxChargeA — the rectifier cannot
// deliver more charge than energy conservation allows
// (I ≤ η·P_in / V_cap).
func (s *Supercap) StepPowerLimited(vocV, routOhm, iLoadA, maxChargeA, dtS float64) float64 {
	if dtS <= 0 || s.Capacitance <= 0 {
		return s.voltage
	}
	iCharge := 0.0
	if routOhm > 0 && vocV > s.voltage {
		iCharge = (vocV - s.voltage) / routOhm
	} else if routOhm <= 0 && vocV > s.voltage {
		iCharge = maxChargeA
	}
	if iCharge > maxChargeA {
		iCharge = maxChargeA
	}
	iLeak := 0.0
	if s.LeakResistance > 0 {
		iLeak = s.voltage / s.LeakResistance
	}
	dv := (iCharge - iLoadA - iLeak) / s.Capacitance * dtS
	s.voltage += dv
	if s.voltage < 0 {
		s.voltage = 0
	}
	if iCharge > 0 && s.voltage > vocV && vocV > 0 {
		s.voltage = vocV
	}
	return s.voltage
}

// LDO is the low-dropout regulator gating the digital domain.
type LDO struct {
	// OutputV is the regulated output (1.8 V for the LP5900SD-1.8).
	OutputV float64
	// PowerOnV is the input voltage required to (re)start the digital
	// section reliably — the paper's 2.5 V "minimum voltage to power up"
	// line in Fig 3.
	PowerOnV float64
	// PowerOffV is the brown-out voltage below which the MCU dies;
	// hysteresis below PowerOnV.
	PowerOffV float64
	// QuiescentA is the regulator's own ground current (≈25 µA for the
	// LP5900 at the MCU's draw, §6.4).
	QuiescentA float64
}

// PaperLDO returns the LP5900SD-1.8 configuration.
func PaperLDO() LDO {
	return LDO{OutputV: 1.8, PowerOnV: 2.5, PowerOffV: 2.0, QuiescentA: 25e-6}
}

// CanPowerOn reports whether a cold node at capacitor voltage v can start.
func (l LDO) CanPowerOn(v float64) bool { return v >= l.PowerOnV }

// MustPowerOff reports whether a running node at capacitor voltage v
// browns out.
func (l LDO) MustPowerOff(v float64) bool { return v < l.PowerOffV }
