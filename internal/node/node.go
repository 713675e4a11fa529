package node

import (
	"fmt"
	"math"

	"pab/internal/frame"
	"pab/internal/phy"
	"pab/internal/piezo"
	"pab/internal/rectifier"
	"pab/internal/sensors"
)

// Config describes a battery-free PAB node.
type Config struct {
	// Addr is the node's link-layer address.
	Addr byte
	// FrontEnds are the node's recto-piezo matching circuits. Multiple
	// entries realise the programmable-resonance extension of §3.3.2
	// ("incorporating multiple matching circuits onboard ... enabling
	// the micro-controller to select the recto-piezo").
	FrontEnds []*RectoPiezo
	// ActiveFrontEnd indexes the initially selected circuit.
	ActiveFrontEnd int
	// MCU is the microcontroller model.
	MCU MCU
	// Cap is the storage supercapacitor.
	Cap *rectifier.Supercap
	// LDO gates the digital domain.
	LDO rectifier.LDO
	// BitrateBps is the initial backscatter bitrate request; the clock
	// divider quantises it.
	BitrateBps float64
	// BatteryJ, when positive, makes the node battery-assisted (the
	// paper's §1 future-work hybrid: "battery-assisted backscatter
	// implementations ... would enable deep-sea deployments ... while
	// still inheriting PAB's benefits of ultra-low power backscatter").
	// The battery carries the digital domain whenever harvesting falls
	// short; communication remains pure backscatter, so the battery
	// drains only at the µW node budget, not at transmit-amplifier
	// rates.
	BatteryJ float64
	// Env is the water the node's sensors are exposed to.
	Env sensors.Environment
}

// Node is a running battery-free (or battery-assisted) sensor node.
type Node struct {
	cfg      Config
	active   int
	state    PowerState
	bitrate  float64 // divider-quantised
	seq      byte
	batteryJ float64 // remaining assist energy
	skewPPM  float64 // bit-clock offset from crystal tolerance
	probe    sensors.PHProbe
	afe      sensors.AFE
	adc      sensors.ADC
	pressure *sensors.MS5837
}

// New validates the configuration and returns a cold (Off) node.
func New(cfg Config) (*Node, error) {
	if len(cfg.FrontEnds) == 0 {
		return nil, fmt.Errorf("node: need at least one recto-piezo front end")
	}
	for i, fe := range cfg.FrontEnds {
		if fe == nil {
			return nil, fmt.Errorf("node: front end %d is nil", i)
		}
	}
	if cfg.ActiveFrontEnd < 0 || cfg.ActiveFrontEnd >= len(cfg.FrontEnds) {
		return nil, fmt.Errorf("node: active front end %d out of range", cfg.ActiveFrontEnd)
	}
	if cfg.Cap == nil {
		return nil, fmt.Errorf("node: nil supercapacitor")
	}
	if cfg.BitrateBps <= 0 {
		return nil, fmt.Errorf("node: bitrate must be positive, got %g", cfg.BitrateBps)
	}
	if cfg.BatteryJ < 0 {
		return nil, fmt.Errorf("node: negative battery capacity %g", cfg.BatteryJ)
	}
	br, err := cfg.MCU.AchievableBitrate(cfg.BitrateBps)
	if err != nil {
		return nil, err
	}
	return &Node{
		cfg:      cfg,
		active:   cfg.ActiveFrontEnd,
		bitrate:  br,
		batteryJ: cfg.BatteryJ,
		probe:    sensors.NewPHProbe(),
		afe:      sensors.PaperAFE(),
		adc:      sensors.MSP430ADC(),
		pressure: sensors.NewMS5837(cfg.Env),
	}, nil
}

// Addr returns the node address.
func (n *Node) Addr() byte { return n.cfg.Addr }

// FrontEnd returns the active recto-piezo.
func (n *Node) FrontEnd() *RectoPiezo { return n.cfg.FrontEnds[n.active] }

// State returns the current power state.
func (n *Node) State() PowerState { return n.state }

// Bitrate returns the divider-quantised backscatter bitrate (bit/s),
// including any configured crystal skew.
func (n *Node) Bitrate() float64 { return n.bitrate * (1 + n.skewPPM*1e-6) }

// SetClockSkewPPM offsets the node's bit clock by ppm parts per million
// — the crystal-tolerance drift of a cheap battery-free oscillator. The
// effective backscatter bitrate shifts accordingly, so long frames
// accumulate timing slip at the receiver. The fault-injection layer
// drives this hook.
func (n *Node) SetClockSkewPPM(ppm float64) { n.skewPPM = ppm }

// ForceBrownout drains the supercapacitor below the LDO's power-off
// threshold, cutting the digital domain immediately — the
// fault-injection hook for mid-protocol power loss. The node cold-starts
// again once harvesting recharges the capacitor.
func (n *Node) ForceBrownout() {
	n.cfg.Cap.SetVoltage(n.cfg.LDO.PowerOffV * 0.9)
	n.state = Off
}

// CapVoltage returns the supercapacitor voltage.
func (n *Node) CapVoltage() float64 { return n.cfg.Cap.Voltage() }

// BatteryRemaining returns the unused assist energy (J); 0 for a
// battery-free node or an exhausted battery.
func (n *Node) BatteryRemaining() float64 { return n.batteryJ }

// HarvestStep advances the node's power domain by dt seconds with an
// incident downlink pressure amplitude (Pa) at frequency f in water of
// characteristic impedance rhoC. It handles cold-start, the power-on
// threshold, and brown-out, and returns the new power state.
func (n *Node) HarvestStep(pressureAmp, f, rhoC, dt float64) PowerState {
	fe := n.FrontEnd()
	voc := fe.RectifiedVoltage(pressureAmp, f, rhoC)
	rout := fe.Rect.OutputResistance()
	v := n.cfg.Cap.Voltage()
	iLoad := n.cfg.MCU.Current(n.state, n.bitrate, v)
	// Energy conservation: the rectifier cannot push more charge than
	// the harvested power supports.
	pSustain := fe.SustainablePower(pressureAmp, f, rhoC)
	maxCharge := pSustain / math.Max(v, 0.5)
	n.cfg.Cap.StepPowerLimited(voc, rout, iLoad, maxCharge, dt)

	// Battery assist: whenever harvesting cannot hold the capacitor at
	// the operating point, the battery covers the shortfall — it tops
	// the capacitor back to the power-on level and is debited the
	// digital draw minus whatever was harvested.
	if n.batteryJ > 0 && n.cfg.Cap.Voltage() < n.cfg.LDO.PowerOnV {
		draw := n.cfg.MCU.Power(n.state, n.bitrate)
		if n.state == Off {
			draw = n.cfg.MCU.Power(Idle, 0) // booting from battery
		}
		shortfall := (draw - pSustain) * dt
		if shortfall < 0 {
			shortfall = 0
		}
		// Topping up the capacitor costs energy too.
		vBefore := n.cfg.Cap.Voltage()
		n.cfg.Cap.SetVoltage(n.cfg.LDO.PowerOnV)
		topUp := 0.5 * n.cfg.Cap.Capacitance *
			(n.cfg.LDO.PowerOnV*n.cfg.LDO.PowerOnV - vBefore*vBefore)
		n.batteryJ -= shortfall + topUp
		if n.batteryJ < 0 {
			n.batteryJ = 0
		}
	}

	switch {
	case n.state == Off && n.cfg.LDO.CanPowerOn(n.cfg.Cap.Voltage()):
		// Boot: interrupts armed, timer initialised, enter LPM3 (§4.2.2).
		n.state = Idle
	case n.state != Off && n.cfg.LDO.MustPowerOff(n.cfg.Cap.Voltage()):
		n.state = Off
	}
	return n.state
}

// DecodeDownlink runs the node's receive chain over a downlink envelope:
// Schmitt trigger (§4.2.1), PWM edge timing (§4.2.2), bit-level preamble
// search, then frame parsing with CRC check. unitSamples is the PWM time
// unit in samples at the envelope's rate.
func (n *Node) DecodeDownlink(envelope []float64, unitSamples int) (frame.Query, error) {
	pwm, err := phy.NewPWM(unitSamples)
	if err != nil {
		return frame.Query{}, err
	}
	levels := phy.SchmittTrigger(envelope, 0.6, 0.3)
	bits := pwm.Decode(levels)
	start := findBitPattern(bits, phy.PreambleBits)
	if start < 0 {
		return frame.Query{}, fmt.Errorf("node: downlink preamble not found in %d bits", len(bits))
	}
	payload := bits[start+len(phy.PreambleBits):]
	if len(payload) < frame.QueryBitLength {
		return frame.Query{}, fmt.Errorf("node: truncated query: %d bits after preamble", len(payload))
	}
	raw, err := frame.FromBits(payload[:frame.QueryBitLength])
	if err != nil {
		return frame.Query{}, err
	}
	return frame.UnmarshalQuery(raw)
}

// findBitPattern returns the first index where pattern occurs in bits,
// or −1.
func findBitPattern(bits, pattern []phy.Bit) int {
	if len(pattern) == 0 || len(bits) < len(pattern) {
		return -1
	}
outer:
	for i := 0; i+len(pattern) <= len(bits); i++ {
		for j, p := range pattern {
			if bits[i+j] != p {
				continue outer
			}
		}
		return i
	}
	return -1
}

// HandleQuery executes a downlink query's command and, when the query is
// addressed to this node (or broadcast), returns the uplink bits to
// backscatter: preamble followed by a CRC-protected data frame. A nil
// bit slice with nil error means the query was for someone else.
func (n *Node) HandleQuery(q frame.Query) ([]phy.Bit, error) {
	if n.state == Off {
		return nil, fmt.Errorf("node: not powered")
	}
	if q.Dest != n.cfg.Addr && q.Dest != frame.BroadcastAddr {
		return nil, nil
	}
	var payload []byte
	switch q.Command {
	case frame.CmdPing:
		payload = []byte{byte(n.active), statusByte(n.CapVoltage())}
	case frame.CmdSetBitrate:
		req := bitrateForDivider(n.cfg.MCU, q.Param)
		if req <= 0 {
			return nil, fmt.Errorf("node: bad divider index %d", q.Param)
		}
		n.bitrate = req
		payload = []byte{q.Param}
	case frame.CmdSwitchResonance:
		idx := int(q.Param)
		if idx >= len(n.cfg.FrontEnds) {
			return nil, fmt.Errorf("node: no matching circuit %d (have %d)", idx, len(n.cfg.FrontEnds))
		}
		n.active = idx
		payload = []byte{q.Param}
	case frame.CmdReadSensor:
		var err error
		payload, err = n.readSensor(frame.SensorID(q.Param))
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("node: unknown command %v", q.Command)
	}
	df := frame.DataFrame{Source: n.cfg.Addr, Seq: n.seq, Payload: payload}
	n.seq++
	raw, err := df.Marshal()
	if err != nil {
		return nil, err
	}
	bits := append(append([]phy.Bit{}, phy.PreambleBits...), frame.Bits(raw)...)
	return bits, nil
}

// statusByte compresses the capacitor voltage into a telemetry byte
// (50 mV per count).
func statusByte(v float64) byte {
	c := int(v / 0.05)
	if c < 0 {
		c = 0
	}
	if c > 255 {
		c = 255
	}
	return byte(c)
}

// bitrateForDivider maps a divider index byte to a bitrate. Index i
// selects divider 2^i·8 — a small table of practical rates
// (4096 bps ... 16 bps).
func bitrateForDivider(m MCU, idx byte) float64 {
	if idx > 8 {
		return 0
	}
	div := float64(uint(8) << uint(idx))
	return m.CrystalHz / div
}

// phSenseEnergyJ is the energy cost of one duty-cycled pH measurement:
// the LMP91200-class AFE draws ≈50 µA at 1.8 V and needs ≈100 ms to
// settle before the ADC samples (§6.5: "future iterations ... may
// eliminate the power supply by ... leveraging the harvested energy and
// duty-cycling the pH sensing process").
const phSenseEnergyJ = 50e-6 * 1.8 * 0.1

// phSenseHeadroomV is the capacitor voltage the node must be able to
// spare for one pH measurement without brown-out.
func (n *Node) phSenseHeadroomV() float64 {
	v := n.cfg.Cap.Voltage()
	// ΔE = ½C(v² − v'²) ⇒ v' after the measurement.
	after := v*v - 2*phSenseEnergyJ/n.cfg.Cap.Capacitance
	if after < 0 {
		return 0
	}
	return math.Sqrt(after)
}

// readSensor samples a peripheral and encodes its reading (§6.5).
// Encodings: pH ×100 (uint16), temperature centi-°C (int16), pressure
// 0.1 mbar (uint16 ×10 mbar? — pressure is mbar×10 in a uint16).
func (n *Node) readSensor(id frame.SensorID) ([]byte, error) {
	switch id {
	case frame.SensorPH:
		// Duty-cycle the AFE from harvested energy: power it only for
		// the measurement, and refuse when the capacitor cannot spare
		// the energy without browning out mid-reply.
		if after := n.phSenseHeadroomV(); after <= n.cfg.LDO.PowerOffV {
			return nil, fmt.Errorf("node: insufficient energy for pH AFE (cap %.2f V would fall to %.2f V)",
				n.cfg.Cap.Voltage(), after)
		}
		n.cfg.Cap.Step(0, 1, phSenseEnergyJ/math.Max(n.cfg.Cap.Voltage(), 0.5)/0.1, 0.1)
		code := n.adc.Sample(n.afe.Condition(n.probe.Voltage(n.cfg.Env)))
		ph := sensors.PHFromCode(code, n.adc, n.afe, n.probe, n.cfg.Env.TemperatureC)
		v := uint16(ph*100 + 0.5)
		return []byte{byte(id), byte(v >> 8), byte(v)}, nil
	case frame.SensorTemperature:
		r, err := sensors.ReadMS5837(n.pressure)
		if err != nil {
			return nil, err
		}
		v := int16(r.TemperatureC * 100)
		return []byte{byte(id), byte(uint16(v) >> 8), byte(uint16(v))}, nil
	case frame.SensorPressure:
		r, err := sensors.ReadMS5837(n.pressure)
		if err != nil {
			return nil, err
		}
		v := uint16(r.PressureMbar * 10)
		return []byte{byte(id), byte(v >> 8), byte(v)}, nil
	default:
		return nil, fmt.Errorf("node: unknown sensor %v", id)
	}
}

// ParseSensorPayload decodes a sensor payload produced by readSensor.
func ParseSensorPayload(p []byte) (frame.SensorID, float64, error) {
	if len(p) != 3 {
		return 0, 0, fmt.Errorf("node: sensor payload length %d, want 3", len(p))
	}
	id := frame.SensorID(p[0])
	raw := uint16(p[1])<<8 | uint16(p[2])
	switch id {
	case frame.SensorPH:
		return id, float64(raw) / 100, nil
	case frame.SensorTemperature:
		return id, float64(int16(raw)) / 100, nil
	case frame.SensorPressure:
		return id, float64(raw) / 10, nil
	default:
		return 0, 0, fmt.Errorf("node: unknown sensor id %d", p[0])
	}
}

// StartBackscatter moves the node into the backscattering state and
// returns the switch-state schedule for the uplink bits at the node's
// bitrate: one SwitchState per sample at sample rate fs. The node stays
// Backscattering until FinishBackscatter.
func (n *Node) StartBackscatter(bits []phy.Bit, fs float64) ([]piezo.SwitchState, error) {
	if n.state == Off {
		return nil, fmt.Errorf("node: not powered")
	}
	spb, err := phy.SamplesPerBitFor(fs, n.bitrate)
	if err != nil {
		return nil, err
	}
	fm0, err := phy.NewFM0(spb)
	if err != nil {
		return nil, err
	}
	wave, _ := fm0.Encode(bits, 1)
	states := make([]piezo.SwitchState, len(wave))
	for i, lv := range wave {
		if lv > 0 {
			states[i] = piezo.Reflective
		} else {
			states[i] = piezo.Absorptive
		}
	}
	n.state = Backscattering
	return states, nil
}

// FinishBackscatter returns the node to idle.
func (n *Node) FinishBackscatter() {
	if n.state == Backscattering {
		n.state = Idle
	}
}
