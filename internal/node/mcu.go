package node

import (
	"fmt"
	"math"
)

// PowerState is the MCU's operating mode.
type PowerState int

// MCU power states (paper §4.2.2, §6.4).
const (
	// Off: supercap below the LDO threshold; nothing runs.
	Off PowerState = iota
	// Idle: LPM3 with the edge-interrupt armed, "ready to receive and
	// decode a downlink signal" — the 124 µW point of Fig 11.
	Idle
	// Decoding: awake, timing PWM edges of a downlink query.
	Decoding
	// Backscattering: driving the switch transistors with FM0 — the
	// ≈500 µW plateau of Fig 11.
	Backscattering
)

// String names the state.
func (s PowerState) String() string {
	switch s {
	case Off:
		return "off"
	case Idle:
		return "idle"
	case Decoding:
		return "decoding"
	case Backscattering:
		return "backscattering"
	default:
		return "unknown"
	}
}

// MCU models the MSP430G2553's timing and power behaviour.
type MCU struct {
	// CrystalHz is the low-frequency watch crystal (32.768 kHz × the
	// paper's "32.8 kHz" rounding).
	CrystalHz float64
	// IdlePowerW is the measured idle draw: MCU in LPM3 with pins held
	// plus LDO quiescent — 124 µW in Fig 11.
	IdlePowerW float64
	// ActivePowerW is the active-mode draw while backscattering: ≈230 µA
	// at 2.1 V plus LDO, ≈480 µW.
	ActivePowerW float64
	// SwitchingPowerPerKbpsW adds the gate-drive cost per kbit/s.
	SwitchingPowerPerKbpsW float64
	// DecodePowerW is the draw while edge-timing a downlink query.
	DecodePowerW float64
}

// PaperMCU returns the MSP430G2553 configuration matched to Fig 11.
func PaperMCU() MCU {
	return MCU{
		CrystalHz:              32768,
		IdlePowerW:             124e-6,
		ActivePowerW:           480e-6,
		SwitchingPowerPerKbpsW: 7e-6,
		DecodePowerW:           300e-6,
	}
}

// Power returns the draw (W) in a state at the given backscatter bitrate
// (bit/s; only meaningful while backscattering).
func (m MCU) Power(s PowerState, bitrate float64) float64 {
	switch s {
	case Off:
		return 0
	case Idle:
		return m.IdlePowerW
	case Decoding:
		return m.DecodePowerW
	case Backscattering:
		return m.ActivePowerW + m.SwitchingPowerPerKbpsW*bitrate/1000
	default:
		return 0
	}
}

// Current returns the supply current (A) drawn from the capacitor at
// voltage v in the given state.
func (m MCU) Current(s PowerState, bitrate, v float64) float64 {
	if v <= 0 {
		return 0
	}
	return m.Power(s, bitrate) / v
}

// AchievableBitrate quantises a requested backscatter bitrate to the
// nearest rate the integer clock divider can produce (paper footnote 13:
// "the resolution with which we can vary the bitrate depends on the
// integer clock divider available in the MCU").
func (m MCU) AchievableBitrate(requested float64) (float64, error) {
	if requested <= 0 {
		return 0, fmt.Errorf("node: requested bitrate must be positive, got %g", requested)
	}
	div := math.Round(m.CrystalHz / requested)
	if div < 1 {
		div = 1
	}
	return m.CrystalHz / div, nil
}
