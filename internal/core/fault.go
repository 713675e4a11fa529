package core

import (
	"pab/internal/fault"
	"pab/internal/frame"
	"pab/internal/telemetry"
)

// linkOp is one rung of the sample-level link's adaptation ladder.
type linkOp struct {
	pwmUnit    int // downlink PWM unit, samples
	maxPayload int // uplink payload budget, bytes
}

// buildLadder derives three operating points from the configured
// (fastest) rung: each step toward robustness doubles the downlink PWM
// unit and halves the uplink payload budget (floor 4 bytes). Index 0 is
// the most robust rung, matching the mac.RateControl convention.
func buildLadder(cfg LinkConfig) []linkOp {
	quarter := cfg.MaxReplyPayload / 4
	half := cfg.MaxReplyPayload / 2
	if quarter < 4 {
		quarter = 4
	}
	if half < 4 {
		half = 4
	}
	return []linkOp{
		{pwmUnit: cfg.PWMUnit * 4, maxPayload: quarter},
		{pwmUnit: cfg.PWMUnit * 2, maxPayload: half},
		{pwmUnit: cfg.PWMUnit, maxPayload: cfg.MaxReplyPayload},
	}
}

// SetFaultEngine attaches a fault-injection engine to the link. Every
// subsequent RunQuery consults the engine's timelines at the link's
// fault-clock cursor (the engine's Now, advanced by each exchange's
// recording duration): noise-floor steps scale the injected noise,
// impulse bursts and clipping corrupt the recording, fades attenuate the
// scattered path, truncation and mid-frame brownouts cut the uplink, and
// the node's crystal is skewed by its drawn drift. Pass nil to detach.
func (l *Link) SetFaultEngine(e *fault.Engine) {
	l.fault = e
	if e != nil {
		l.node.SetClockSkewPPM(e.ClockDriftPPM(l.node.Addr()))
	} else {
		l.node.SetClockSkewPPM(0)
	}
}

// applyLevel installs the current rung into the live config.
func (l *Link) applyLevel() {
	op := l.ladder[l.level]
	l.cfg.PWMUnit = op.pwmUnit
	l.cfg.MaxReplyPayload = op.maxPayload
	telemetry.Set(telemetry.MCoreLinkLevel, float64(l.level))
}

// Downshift moves one rung toward the robust end — slower downlink PWM,
// smaller uplink payload budget (mac.RateControl).
func (l *Link) Downshift() bool {
	if l.level == 0 {
		return false
	}
	l.level--
	l.applyLevel()
	telemetry.Inc(telemetry.MCoreLinkDownshiftsTotal)
	return true
}

// Upshift moves one rung toward the fast end (mac.RateControl).
func (l *Link) Upshift() bool {
	if l.level >= len(l.ladder)-1 {
		return false
	}
	l.level++
	l.applyLevel()
	telemetry.Inc(telemetry.MCoreLinkUpshiftsTotal)
	return true
}

// Level is the current adaptation rung, 0 = most robust
// (mac.RateControl).
func (l *Link) Level() int { return l.level }

// faultNodeOff reports whether the attached engine (if any) has the
// node unpowered at the link's fault-clock cursor, forcing the brownout
// into the node's power domain.
func (l *Link) faultNodeOff() bool {
	if l.fault == nil {
		return false
	}
	if l.fault.NodeOff(l.node.Addr(), l.fault.Now()) {
		l.node.ForceBrownout()
		return true
	}
	return false
}

// faultQueryError is the error RunQuery returns when the fault engine
// browns the node out before the exchange starts.
func faultQueryError(q frame.Query) error {
	return &NodeOffError{Dest: q.Dest}
}

// NodeOffError reports an exchange refused because the node is
// unpowered.
type NodeOffError struct {
	Dest byte
}

// Error describes the failure.
func (e *NodeOffError) Error() string {
	return "core: node is not powered (supercap below power-on threshold)"
}
